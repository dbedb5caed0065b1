#include "src/workloads/graph_workloads.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {
constexpr uint64_t kBatch = 256;
}  // namespace

// --- Graph500 -----------------------------------------------------------------

void Graph500Workload::Setup(App& app, Rng& rng) {
  (void)rng;
  edges_ = app.Alloc(EdgeBytes());
  vertices_ = app.Alloc(VertexBytes());
  Layout();
}

void Graph500Workload::Layout() {
  const uint64_t edge_pages = EdgeBytes() >> kPageShift;
  vertex_pages_ = VertexBytes() >> kPageShift;
  gen_budget_ = (edge_pages + vertex_pages_) * params_.gen_accesses_per_page;
  edge_scan_ = std::make_unique<SequentialScanner>(edges_, edge_pages, 512);
  key_zipf_.emplace(vertex_pages_, 1.1);
}

void Graph500Workload::VisitState(StateCodec& c) {
  c.Section(0x47353030u);  // "G500"
  c.Region("edges", edges_, EdgeBytes());
  c.Region("vertices", vertices_, VertexBytes());
  c.Field("issued", issued_);
  if (c.loading()) Layout();
  c.Record("edge_scan", *edge_scan_);
}

bool Graph500Workload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch;) {
    if (issued_ < gen_budget_) {
      // Generation: stream-write edges, random-write vertices (whole footprint
      // is hot, mostly stores). Positions 0-2 of every 4-access group are
      // consecutive edge-stream writes — issued as one run (same address
      // stream as three scalar writes; the engine coalesces it).
      const uint64_t phase = issued_ & 3;
      if (phase != 3) {
        const uint64_t want = std::min(
            {3 - phase, gen_budget_ - issued_, kBatch - i});
        uint64_t n = 0;
        const Vaddr addr = edge_scan_->NextRun(want, &n);
        app.WriteRun(addr, n, edge_scan_->stride_bytes());
        issued_ += n;
        i += n;
      } else {
        app.Write(vertices_ + (rng.NextBelow(vertex_pages_) << kPageShift) +
                  (rng.Next() & (kPageSize - 1) & ~0x7ULL));
        ++issued_;
        ++i;
      }
      continue;
    }
    // BFS search: per key, a skewed working set of vertices plus edge reads.
    const uint64_t search_issued = issued_ - gen_budget_;
    const uint32_t key = static_cast<uint32_t>(search_issued / params_.accesses_per_key);
    if (key >= params_.num_search_keys) {
      return false;
    }
    if (rng.NextBool(0.75)) {
      // Vertex access: Zipf rank rotated per key so each BFS has its own
      // (small) hot frontier.
      const uint64_t rank = key_zipf_->Sample(rng);
      const uint64_t page = (rank + static_cast<uint64_t>(key) * 977) % vertex_pages_;
      app.Read(vertices_ + (page << kPageShift) + (rng.Next() & (kPageSize - 1) & ~0x7ULL));
    } else {
      app.Read(edge_scan_->Next());
    }
    ++issued_;
    ++i;
  }
  return true;
}

// --- PageRank -----------------------------------------------------------------

void PageRankWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  edges_ = app.Alloc(EdgeBytes());
  ranks_base_ = app.Alloc(RankBytes());
  Layout();
}

uint64_t PageRankWorkload::RankBytes() const {
  return std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(params_.footprint_bytes) *
                            params_.rank_fraction),
      kHugePageSize);
}

void PageRankWorkload::Layout() {
  // Rank vector: mildly skewed (vertex degree skew), huge pages fully used.
  ranks_ = std::make_unique<SkewedRegion>(ranks_base_, RankBytes() >> kPageShift,
                                          /*zipf_s=*/0.7, params_.seed,
                                          /*chunk_pages=*/kSubpagesPerHuge);
  edge_scan_ = std::make_unique<SequentialScanner>(
      edges_, EdgeBytes() >> kPageShift, 512);
}

void PageRankWorkload::VisitState(StateCodec& c) {
  c.Section(0x50524e4bu);  // "PRNK"
  c.Region("edges", edges_, EdgeBytes());
  c.Region("ranks", ranks_base_, RankBytes());
  c.Field("sweeps_done", sweeps_done_);
  if (c.loading()) Layout();
  c.Record("edge_scan", *edge_scan_);
}

bool PageRankWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i) {
    if (rng.NextBool(params_.rank_traffic)) {
      const Vaddr addr = ranks_->SampleAddr(rng);
      if (rng.NextBool(params_.rank_write_ratio)) {
        app.Write(addr);
      } else {
        app.Read(addr);
      }
    } else {
      app.Read(edge_scan_->Next());
      if (edge_scan_->progress() == 0.0) {
        ++sweeps_done_;
        if (sweeps_done_ >= params_.iterations) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace memtis
