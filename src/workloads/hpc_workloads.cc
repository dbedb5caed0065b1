#include "src/workloads/hpc_workloads.h"

#include <algorithm>

#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {
constexpr uint64_t kBatch = 256;
}  // namespace

// --- XSBench ------------------------------------------------------------------

void XSBenchWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  // The hot energy grid is allocated first (early allocation per the paper).
  hot_base_ = app.Alloc(HotBytes());
  cold_ = app.Alloc(ColdBytes());
  Layout();
}

uint64_t XSBenchWorkload::HotBytes() const {
  return std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(params_.footprint_bytes) *
                            params_.hot_region_fraction),
      kHugePageSize);
}

void XSBenchWorkload::Layout() {
  cold_pages_ = ColdBytes() >> kPageShift;
  const uint64_t hot_pages = HotBytes() >> kPageShift;
  // Early phase: nearly flat skew across the whole hot region (hot set ~= the
  // full region, exceeding the fast tier in 1:8/1:16). Steady state: strong
  // skew (hot set shrinks well below the region size).
  hot_flat_ = std::make_unique<SkewedRegion>(hot_base_, hot_pages, /*zipf_s=*/0.3,
                                             params_.seed, kSubpagesPerHuge);
  hot_steady_ = std::make_unique<SkewedRegion>(hot_base_, hot_pages, /*zipf_s=*/1.2,
                                               params_.seed, kSubpagesPerHuge);
}

void XSBenchWorkload::VisitState(StateCodec& c) {
  c.Section(0x5853424eu);  // "XSBN"
  c.Region("hot", hot_base_, HotBytes());
  c.Region("cold", cold_, ColdBytes());
  c.Field("issued", issued_);
  if (c.loading()) Layout();
}

bool XSBenchWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i, ++issued_) {
    if (rng.NextBool(params_.cold_read_prob)) {
      app.Read(cold_ + (rng.NextBelow(cold_pages_) << kPageShift) +
               (rng.Next() & (kPageSize - 1) & ~0x7ULL));
      continue;
    }
    const SkewedRegion& region =
        issued_ < params_.warm_phase_accesses ? *hot_flat_ : *hot_steady_;
    app.Read(region.SampleAddr(rng));
  }
  return true;
}

// --- Liblinear ----------------------------------------------------------------

void LiblinearWorkload::Setup(App& app, Rng& rng) {
  (void)rng;
  base_ = app.Alloc(params_.footprint_bytes);
  Layout();
}

void LiblinearWorkload::Layout() {
  const uint64_t pages = params_.footprint_bytes >> kPageShift;
  data_ = std::make_unique<SkewedRegion>(base_, pages, params_.zipf_s, params_.seed,
                                         kSubpagesPerHuge);
  scan_ = std::make_unique<SequentialScanner>(base_, pages, 1024);
}

void LiblinearWorkload::VisitState(StateCodec& c) {
  c.Section(0x4c49424cu);  // "LIBL"
  c.Region("base", base_, params_.footprint_bytes);
  if (c.loading()) Layout();
  c.Record("scan", *scan_);
}

bool LiblinearWorkload::Step(App& app, Rng& rng) {
  for (uint64_t i = 0; i < kBatch; ++i) {
    Vaddr addr;
    if (rng.NextBool(params_.scan_traffic)) {
      addr = scan_->Next();
    } else {
      addr = data_->SampleAddr(rng);
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
