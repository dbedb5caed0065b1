#include "src/workloads/kv_workloads.h"

#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {
constexpr uint64_t kBatch = 256;
}  // namespace

// --- Silo ---------------------------------------------------------------------

void SiloWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  base_ = app.Alloc(params_.footprint_bytes);
  Layout();
  populate_total_ = params_.footprint_bytes >> kPageShift;
}

void SiloWorkload::Layout() {
  store_ = std::make_unique<SparseHugeRegion>(
      base_, params_.footprint_bytes / kHugePageSize, params_.zipf_s,
      params_.hot_per_block,
      /*written_per_block=*/static_cast<uint32_t>(kSubpagesPerHuge),
      params_.stray_prob, params_.seed);
}

bool SiloWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i) {
    if (populate_cursor_ < populate_total_) {
      // Population: every subpage is written once, so splits reclaim nothing
      // (paper: "RSS remains unchanged after the split ... no memory bloat").
      app.Write(base_ + (populate_cursor_ << kPageShift));
      ++populate_cursor_;
      continue;
    }
    // YCSB-C: 100% lookups.
    app.Read(store_->SampleAddr(rng));
  }
  return true;
}

void SiloWorkload::VisitState(StateCodec& c) {
  c.Section(0x53494c4fu);  // "SILO"
  c.Region("base", base_, params_.footprint_bytes);
  c.Field("populate_cursor", populate_cursor_);
  c.Field("populate_total", populate_total_);
  // Setup() is not re-run on restore (the allocation already lives in the
  // restored memory system).
  if (c.loading()) Layout();
}

// --- Btree --------------------------------------------------------------------

void BtreeWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  base_ = app.Alloc(params_.footprint_bytes);
  Layout();
}

void BtreeWorkload::Layout() {
  index_ = std::make_unique<SparseHugeRegion>(
      base_, params_.footprint_bytes / kHugePageSize, params_.zipf_s,
      params_.hot_per_block, params_.written_per_block, params_.stray_prob,
      params_.seed);
}

bool BtreeWorkload::Step(App& app, Rng& rng) {
  // Population happens lazily in the first steps: write each written subpage
  // once, then switch to random lookups.
  if (populate_cursor_ == 0) {
    index_->ForEachWrittenSubpage([&](Vaddr addr) { app.Write(addr); });
    populate_cursor_ = 1;
    return true;
  }
  for (uint64_t i = 0; i < kBatch; ++i) {
    app.Read(index_->SampleAddr(rng));
  }
  return true;
}

void BtreeWorkload::VisitState(StateCodec& c) {
  c.Section(0x42545245u);  // "BTRE"
  // The index is deterministic from params + its base: only the base is
  // stored, and a load rebuilds the index from it.
  c.Region("base", base_, params_.footprint_bytes);
  c.Field("populate_cursor", populate_cursor_);
  if (c.loading()) Layout();
}

}  // namespace memtis
