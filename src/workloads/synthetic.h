// Configurable synthetic workload for unit tests, micro-benchmarks, and the
// sensitivity experiments.

#ifndef MEMTIS_SIM_SRC_WORKLOADS_SYNTHETIC_H_
#define MEMTIS_SIM_SRC_WORKLOADS_SYNTHETIC_H_

#include <memory>

#include "src/sim/workload.h"
#include "src/snapshot/state_codec.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class SyntheticWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 64ull << 20;
    double zipf_s = 1.0;            // 0 -> near-uniform
    uint64_t chunk_pages = 1;       // skew granularity (512 = per huge page)
    double write_ratio = 0.2;
    bool populate_first = false;    // sequential write pass before steady state
    uint64_t seed = 3;
  };

  SyntheticWorkload() : SyntheticWorkload(Params{}) {}
  explicit SyntheticWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "synthetic"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }

  void Setup(App& app, Rng& rng) override {
    (void)rng;
    base_ = app.Alloc(params_.footprint_bytes);
    Layout();
    populate_left_ = params_.populate_first ? region_->num_pages() : 0;
  }

  bool Step(App& app, Rng& rng) override {
    for (int i = 0; i < 256; ++i) {
      if (populate_left_ > 0) {
        --populate_left_;
        app.Write(base_ + (populate_left_ << kPageShift));
        continue;
      }
      const Vaddr addr = region_->SampleAddr(rng);
      if (rng.NextBool(params_.write_ratio)) {
        app.Write(addr);
      } else {
        app.Read(addr);
      }
    }
    return true;
  }

  const SkewedRegion& region() const { return *region_; }
  Vaddr base() const { return base_; }

  // Checkpointing: Setup() is not re-run on restore — a load rebuilds the
  // region through Setup's Layout() (deterministic from params + base).
  void VisitState(StateCodec& c) override {
    c.Section(0x53594e54u);  // "SYNT"
    c.Region("base", base_, params_.footprint_bytes);
    c.Field("populate_left", populate_left_);
    if (c.loading()) Layout();
  }

 private:
  void Layout() {
    region_ = std::make_unique<SkewedRegion>(
        base_, params_.footprint_bytes >> kPageShift,
        params_.zipf_s <= 0.0 ? 0.01 : params_.zipf_s, params_.seed,
        params_.chunk_pages);
  }

  Params params_;
  Vaddr base_ = 0;
  std::unique_ptr<SkewedRegion> region_;
  uint64_t populate_left_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_SYNTHETIC_H_
