// Graph-processing models: Graph500 (generate + BFS) and GAP PageRank.
//
// Both benchmarks "access a large memory region frequently during graph
// generation [and] a small memory region frequently during search" with high
// huge-page utilisation (paper §6.2.1). PageRank keeps a small, persistently
// hot rank array plus streamed edge lists, so its hot set is well below the
// fast-tier size at 1:2 (paper Fig. 2).

#ifndef MEMTIS_SIM_SRC_WORKLOADS_GRAPH_WORKLOADS_H_
#define MEMTIS_SIM_SRC_WORKLOADS_GRAPH_WORKLOADS_H_

#include <memory>
#include <optional>

#include "src/sim/workload.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class Graph500Workload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 192ull << 20;
    uint64_t gen_accesses_per_page = 12;  // generation-phase intensity
    uint32_t num_search_keys = 64;
    uint64_t accesses_per_key = 90'000;
    uint64_t seed = 7;
  };

  Graph500Workload() : Graph500Workload(Params{}) {}
  explicit Graph500Workload(Params params) : params_(params) {}

  std::string_view name() const override { return "graph500"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  uint64_t EdgeBytes() const { return params_.footprint_bytes * 3 / 4; }
  uint64_t VertexBytes() const { return params_.footprint_bytes - EdgeBytes(); }
  // Everything but the region bases and the cursors follows from params:
  // Setup and a load share this.
  void Layout();

  Params params_;
  Vaddr edges_ = 0;
  Vaddr vertices_ = 0;
  uint64_t vertex_pages_ = 0;
  uint64_t gen_budget_ = 0;
  uint64_t issued_ = 0;
  std::unique_ptr<SequentialScanner> edge_scan_;
  std::optional<ZipfSampler> key_zipf_;
};

class PageRankWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 256ull << 20;
    double rank_fraction = 0.14;    // hot rank array share of the footprint
    double rank_traffic = 0.55;     // share of accesses hitting the rank array
    double rank_write_ratio = 0.3;  // writes within rank traffic
    uint32_t iterations = 20;
    uint64_t seed = 11;
  };

  PageRankWorkload() : PageRankWorkload(Params{}) {}
  explicit PageRankWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "pagerank"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }
  void Setup(App& app, Rng& rng) override;
  bool Step(App& app, Rng& rng) override;
  void VisitState(StateCodec& c) override;

 private:
  uint64_t RankBytes() const;
  uint64_t EdgeBytes() const { return params_.footprint_bytes - RankBytes(); }
  // Builds the rank region and the edge scanner over the bases from params:
  // Setup and a load share it.
  void Layout();

  Params params_;
  Vaddr edges_ = 0;
  Vaddr ranks_base_ = 0;
  std::unique_ptr<SkewedRegion> ranks_;
  std::unique_ptr<SequentialScanner> edge_scan_;
  uint32_t sweeps_done_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_GRAPH_WORKLOADS_H_
