// SPEC CPU 2017 models: 603.bwaves_s and 654.roms_s.
//
// bwaves "allocates short-lived and long-lived data" (paper §6.2.6): policies
// that keep fast-tier headroom for new allocations win here. roms is a
// time-stepping ocean model whose access pattern forms the banded heat map of
// paper Fig. 1: hot bands that shift slowly across the footprint.

#ifndef MEMTIS_SIM_SRC_WORKLOADS_SPEC_WORKLOADS_H_
#define MEMTIS_SIM_SRC_WORKLOADS_SPEC_WORKLOADS_H_

#include <memory>

#include "src/sim/workload.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class BwavesWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 96ull << 20;  // long-lived arrays
    uint64_t short_lived_bytes = 6ull << 20;  // per transient buffer
    uint64_t churn_interval = 60'000;         // accesses between alloc/free cycles
    double short_lived_traffic = 0.25;
    double write_ratio = 0.35;
    uint64_t seed = 29;
  };

  BwavesWorkload() : BwavesWorkload(Params{}) {}
  explicit BwavesWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "603.bwaves"; }
  uint64_t footprint_bytes() const override {
    return params_.footprint_bytes + params_.short_lived_bytes;
  }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  // Builds the long-lived arrays' sampler and sweep over base_ from params:
  // Setup and a load share it.
  void Layout();

  Params params_;
  Vaddr base_ = 0;
  std::unique_ptr<SkewedRegion> arrays_;
  std::unique_ptr<SequentialScanner> sweep_;
  Vaddr transient_ = 0;
  uint64_t transient_pages_ = 0;
  uint64_t issued_ = 0;
  uint64_t next_churn_ = 0;
};

class RomsWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 96ull << 20;
    uint32_t num_bands = 10;
    uint64_t phase_accesses = 600'000;  // accesses before the hot band shifts
    double band_traffic = 0.7;
    double write_ratio = 0.25;
    uint64_t seed = 31;
  };

  RomsWorkload() : RomsWorkload(Params{}) {}
  explicit RomsWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "654.roms"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  // Derives the band geometry and the sweep over base_ from params: Setup
  // and a load share it.
  void Layout();

  Params params_;
  Vaddr base_ = 0;
  uint64_t band_pages_ = 0;
  std::unique_ptr<SequentialScanner> sweep_;
  uint64_t issued_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_SPEC_WORKLOADS_H_
