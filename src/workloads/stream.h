// Streaming workload built around access runs.
//
// Models bandwidth-bound kernels (memcpy-ish sweeps, column scans): long
// strided sweeps over a large region, with a small Zipf-hot index region that
// keeps the tiering policy busy. Every sweep segment is issued through
// App::ReadRun/WriteRun so the engine's batched-replay path does the heavy
// lifting; `use_runs = false` issues the exact same address stream through
// scalar Read/Write calls, which the differential tests use to pin the
// batched path byte-for-byte to the scalar one.

#ifndef MEMTIS_SIM_SRC_WORKLOADS_STREAM_H_
#define MEMTIS_SIM_SRC_WORKLOADS_STREAM_H_

#include <algorithm>
#include <memory>

#include "src/sim/workload.h"
#include "src/snapshot/state_codec.h"
#include "src/workloads/workload_common.h"

namespace memtis {

class StreamWorkload : public Workload {
 public:
  struct Params {
    uint64_t footprint_bytes = 256ull << 20;
    // Accesses per emitted run (one sweep segment).
    uint64_t run_accesses = 64;
    // Stride within a run; 64 B walks a 4 KiB page in one run of 64.
    uint64_t stride_bytes = 64;
    // Fraction of runs that are writes (sweep-and-update phases).
    double write_ratio = 0.3;
    // Fraction of steps that touch the Zipf-hot index region instead of
    // sweeping (keeps promotion/demotion traffic alive under the sweep).
    double hot_traffic = 0.05;
    // Fraction of the footprint given to the hot index region.
    double hot_fraction = 0.125;
    // false -> same address stream via scalar Read/Write (differential twin).
    bool use_runs = true;
    uint64_t seed = 11;
  };

  StreamWorkload() : StreamWorkload(Params{}) {}
  explicit StreamWorkload(Params params) : params_(params) {}

  std::string_view name() const override { return "stream"; }
  uint64_t footprint_bytes() const override { return params_.footprint_bytes; }

  void Setup(App& app, Rng& rng) override {
    (void)rng;
    sweep_base_ = app.Alloc(SweepBytes());
    hot_base_ = app.Alloc(HotBytes());
    Layout();
  }

  std::unique_ptr<Workload> ShardSlice(uint32_t shard,
                                       uint32_t num_shards) const override {
    // Range sharding: shard i sweeps its own footprint/num_shards slice with
    // a decorrelated seed. Shard 0 of 1 is the identity (same params, same
    // seed), which pins ShardedEngine(1) to plain Engine bytes.
    Params p = params_;
    const uint64_t slice = params_.footprint_bytes / num_shards;
    p.footprint_bytes = std::max<uint64_t>(slice / kHugePageSize, 8) * kHugePageSize;
    p.seed = params_.seed + static_cast<uint64_t>(shard) * 7919;
    return std::make_unique<StreamWorkload>(p);
  }

  bool Step(App& app, Rng& rng) override {
    // One Step = a handful of runs, so the engine's between-Step budget check
    // keeps the same granularity as the other workloads (~256 accesses).
    for (int r = 0; r < 4; ++r) {
      if (rng.NextBool(params_.hot_traffic)) {
        const Vaddr addr = hot_->SampleAddr(rng);
        if (rng.NextBool(params_.write_ratio)) {
          app.Write(addr);
        } else {
          app.Read(addr);
        }
        continue;
      }
      const bool is_write = rng.NextBool(params_.write_ratio);
      uint64_t n = 0;
      const Vaddr addr = sweep_->NextRun(params_.run_accesses, &n);
      if (params_.use_runs) {
        if (is_write) {
          app.WriteRun(addr, n, params_.stride_bytes);
        } else {
          app.ReadRun(addr, n, params_.stride_bytes);
        }
      } else {
        for (uint64_t i = 0; i < n; ++i) {
          const Vaddr a = addr + i * params_.stride_bytes;
          if (is_write) {
            app.Write(a);
          } else {
            app.Read(a);
          }
        }
      }
    }
    return true;  // engine's access budget bounds the run
  }

  // Checkpointing: region geometry is deterministic from params, so only the
  // two base addresses and the sweep cursor are stored; a load rebuilds
  // the scanner and hot region through Setup's Layout().
  void VisitState(StateCodec& c) override {
    c.Section(0x5354524du);  // "STRM"
    c.Region("sweep_base", sweep_base_, SweepBytes());
    c.Region("hot_base", hot_base_, HotBytes());
    if (c.loading()) Layout();
    c.Record("sweep", *sweep_);
  }

 private:
  uint64_t HotBytes() const {
    return std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(params_.footprint_bytes) *
                              params_.hot_fraction),
        kHugePageSize);
  }
  uint64_t SweepBytes() const { return params_.footprint_bytes - HotBytes(); }
  void Layout() {
    sweep_ = std::make_unique<SequentialScanner>(
        sweep_base_, SweepBytes() >> kPageShift, params_.stride_bytes);
    hot_ = std::make_unique<SkewedRegion>(hot_base_, HotBytes() >> kPageShift,
                                          /*zipf_s=*/1.1, params_.seed,
                                          /*chunk_pages=*/kSubpagesPerHuge);
  }

  Params params_;
  Vaddr sweep_base_ = 0;
  Vaddr hot_base_ = 0;
  std::unique_ptr<SequentialScanner> sweep_;
  std::unique_ptr<SkewedRegion> hot_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_STREAM_H_
