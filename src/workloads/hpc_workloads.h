// HPC / ML models: XSBench (Monte Carlo neutron transport kernel) and
// Liblinear (large-scale linear classification).
//
// XSBench has "a very skewed hot memory region allocated at an early stage"
// (paper §6.2.2); during its early phase the hot set exceeds the fast tier in
// the 1:8/1:16 configurations (paper Fig. 2), then settles into a smaller hot
// set. Liblinear's hot huge pages have high utilisation (paper Fig. 3a), so
// chunk-granular skew is 2 MiB.

#ifndef MEMTIS_SIM_SRC_WORKLOADS_HPC_WORKLOADS_H_
#define MEMTIS_SIM_SRC_WORKLOADS_HPC_WORKLOADS_H_

#include <memory>

#include "src/sim/workload.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class XSBenchWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 160ull << 20;
    double hot_region_fraction = 0.35;  // unionized energy grid share
    uint64_t warm_phase_accesses = 1'500'000;  // flat-skew startup phase
    double cold_read_prob = 0.15;       // nuclide-data lookups in steady state
    uint64_t seed = 13;
  };

  XSBenchWorkload() : XSBenchWorkload(Params{}) {}
  explicit XSBenchWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "xsbench"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  uint64_t HotBytes() const;
  uint64_t ColdBytes() const { return params_.footprint_bytes - HotBytes(); }
  // Builds both hot-region samplers over the bases from params: Setup and a
  // load share it.
  void Layout();

  Params params_;
  Vaddr hot_base_ = 0;
  Vaddr cold_ = 0;
  uint64_t cold_pages_ = 0;
  std::unique_ptr<SkewedRegion> hot_flat_;   // early phase: broad hot set
  std::unique_ptr<SkewedRegion> hot_steady_;  // later: concentrated hot set
  uint64_t issued_ = 0;
};

class LiblinearWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 192ull << 20;
    double zipf_s = 0.9;        // feature-frequency skew across 2 MiB chunks
    double scan_traffic = 0.3;  // full-data training epochs share
    double write_ratio = 0.1;
    uint64_t seed = 17;
  };

  LiblinearWorkload() : LiblinearWorkload(Params{}) {}
  explicit LiblinearWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "liblinear"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  // Builds the skewed region and the scanner over base_ from params: Setup
  // and a load share it.
  void Layout();

  Params params_;
  Vaddr base_ = 0;
  std::unique_ptr<SkewedRegion> data_;
  std::unique_ptr<SequentialScanner> scan_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_HPC_WORKLOADS_H_
