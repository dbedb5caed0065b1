// In-memory key-value models: Silo (YCSB-C Zipfian lookups) and a Btree index.
//
// Both exhibit the low huge-page utilisation of paper Fig. 3b: Silo touches
// 5-15% of subpages per huge page (no bloat — every subpage is written during
// population), while Btree additionally suffers THP memory bloat (paper
// §6.2.5: RSS 38.3 GB with THP vs 15.2 GB without), modelled by populating
// only a fraction of subpages per huge page.

#ifndef MEMTIS_SIM_SRC_WORKLOADS_KV_WORKLOADS_H_
#define MEMTIS_SIM_SRC_WORKLOADS_KV_WORKLOADS_H_

#include <memory>

#include "src/sim/workload.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class SiloWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 160ull << 20;
    double zipf_s = 0.99;           // YCSB Zipfian constant
    uint32_t hot_per_block = 51;  // ~10% of 512 subpages (paper: 5-15%)
    double stray_prob = 0.01;
    uint64_t seed = 19;
  };

  SiloWorkload() : SiloWorkload(Params{}) {}
  explicit SiloWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "silo"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;

  void VisitState(StateCodec& c) override;

 private:
  // Builds the store over base_ from params: Setup and a load share it.
  void Layout();

  Params params_;
  std::unique_ptr<SparseHugeRegion> store_;
  uint64_t populate_cursor_ = 0;  // population writes issued so far
  uint64_t populate_total_ = 0;
  Vaddr base_ = 0;
};

class BtreeWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 160ull << 20;  // THP-bloated footprint
    double zipf_s = 0.9;
    uint32_t hot_per_block = 48;      // ~9% utilisation (paper: 8.3-12.5%)
    uint32_t written_per_block = 204;  // ~40% populated (15.2/38.3 RSS ratio)
    double stray_prob = 0.02;
    uint64_t seed = 23;
  };

  BtreeWorkload() : BtreeWorkload(Params{}) {}
  explicit BtreeWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "btree"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;

  void VisitState(StateCodec& c) override;

 private:
  // Builds the index over base_ from params: Setup and a load share it.
  void Layout();

  Params params_;
  Vaddr base_ = 0;
  std::unique_ptr<SparseHugeRegion> index_;
  uint64_t populate_cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_KV_WORKLOADS_H_
