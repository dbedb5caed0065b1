#include "src/workloads/spec_workloads.h"

#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {
constexpr uint64_t kBatch = 256;
}  // namespace

// --- 603.bwaves ----------------------------------------------------------------

void BwavesWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  base_ = app.Alloc(params_.footprint_bytes);
  transient_ = app.Alloc(params_.short_lived_bytes);
  Layout();
  next_churn_ = params_.churn_interval;
}

void BwavesWorkload::Layout() {
  const uint64_t pages = params_.footprint_bytes >> kPageShift;
  arrays_ = std::make_unique<SkewedRegion>(base_, pages, /*zipf_s=*/0.7, params_.seed,
                                           kSubpagesPerHuge);
  sweep_ = std::make_unique<SequentialScanner>(base_, pages, 1024);
  transient_pages_ = params_.short_lived_bytes >> kPageShift;
}

// The transient buffer's base moves with every churn; a restore checks the
// saved one against the restored memory system before Step frees it.
void BwavesWorkload::VisitState(StateCodec& c) {
  c.Section(0x42574156u);  // "BWAV"
  c.Region("base", base_, params_.footprint_bytes);
  c.Region("transient", transient_, params_.short_lived_bytes);
  c.Field("issued", issued_);
  c.Field("next_churn", next_churn_);
  if (c.loading()) Layout();
  c.Record("sweep", *sweep_);
}

bool BwavesWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i, ++issued_) {
    if (issued_ >= next_churn_) {
      // Free the transient buffer and allocate a fresh one — the short-lived
      // data churn that rewards policies reserving fast-tier headroom.
      app.Free(transient_);
      transient_ = app.Alloc(params_.short_lived_bytes);
      next_churn_ = issued_ + params_.churn_interval;
    }
    if (rng.NextBool(params_.short_lived_traffic)) {
      const Vaddr addr = transient_ + (rng.NextBelow(transient_pages_) << kPageShift) +
                         (rng.Next() & (kPageSize - 1) & ~0x7ULL);
      if (rng.NextBool(params_.write_ratio)) {
        app.Write(addr);
      } else {
        app.Read(addr);
      }
      continue;
    }
    Vaddr addr = rng.NextBool(0.5) ? sweep_->Next() : arrays_->SampleAddr(rng);
    if (rng.NextBool(params_.write_ratio)) {
      app.Write(addr);
    } else {
      app.Read(addr);
    }
  }
  return true;
}

// --- 654.roms -------------------------------------------------------------------

void RomsWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  base_ = app.Alloc(params_.footprint_bytes);
  Layout();
}

void RomsWorkload::Layout() {
  const uint64_t pages = params_.footprint_bytes >> kPageShift;
  band_pages_ = pages / params_.num_bands;
  sweep_ = std::make_unique<SequentialScanner>(base_, pages, 1024);
}

void RomsWorkload::VisitState(StateCodec& c) {
  c.Section(0x524f4d53u);  // "ROMS"
  c.Region("base", base_, params_.footprint_bytes);
  c.Field("issued", issued_);
  if (c.loading()) Layout();
  c.Record("sweep", *sweep_);
}

bool RomsWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i, ++issued_) {
    Vaddr addr;
    if (rng.NextBool(params_.band_traffic)) {
      // Hot band for the current phase, shifting over time (Fig. 1's banded
      // heat map structure).
      const uint64_t band = (issued_ / params_.phase_accesses) % params_.num_bands;
      const uint64_t page = band * band_pages_ + rng.NextBelow(band_pages_);
      addr = base_ + (page << kPageShift) + (rng.Next() & (kPageSize - 1) & ~0x7ULL);
    } else {
      addr = sweep_->Next();
    }
    if (rng.NextBool(params_.write_ratio)) {
      app.Write(addr);
    } else {
      app.Read(addr);
    }
  }
  return true;
}

}  // namespace memtis
