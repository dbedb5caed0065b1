// Timing decorators for the per-layer pass of bench/e2e/memtis_bench.py.
//
// Each decorator wraps one stable public interface — Workload, TieringPolicy,
// EngineObserver — forwards every call unchanged, and charges the host time
// of the call to a per-cell CellTrace. Nothing here touches snapshot hooks
// (SaveState/LoadState) or runner internals, so refactors of those layers do
// not have to edit the benchmark. A decorated cell must produce metrics
// identical to the undecorated run; memtis_bench.py checks that on every cell.
//
// Cost control: OnAccess and AbsorbRun run once per access (or per run), so
// only every kAccessStride-th call is timed and scaled up; the call counts
// stay exact. The stride is prime so it cannot alias with PEBS sampling
// periods. Ticks, allocation hooks, Setup/Step and observer callbacks are
// timed on every call. Every timed interval has the calibrated cost of one
// clock read subtracted.
//
// The audit layer's MEMTIS invariants dynamic_cast the engine's policy, so a
// cell that runs under the auditor wraps the workload and the observer only:
// wrapping the policy there would change which checks run.

#ifndef MEMTIS_SIM_BENCH_E2E_LAYER_TRACE_H_
#define MEMTIS_SIM_BENCH_E2E_LAYER_TRACE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/policy.h"
#include "src/sim/workload.h"

namespace memtis::layer_trace {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Median cost of one NowNs() call, measured back to back.
inline uint64_t CalibrateClockNs() {
  std::vector<uint64_t> deltas(2001);
  for (uint64_t& d : deltas) {
    const uint64_t t0 = NowNs();
    d = NowNs() - t0;
  }
  std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                   deltas.end());
  return deltas[deltas.size() / 2];
}

inline constexpr uint32_t kAccessStride = 61;

// Log-linear histogram of nanosecond durations: exact below 64 ns, then 32
// linear sub-buckets per power of two (about 3% resolution).
class DurationHistogram {
 public:
  void Add(uint64_t ns) { ++counts_[Bucket(ns)]; }

  void Merge(const DurationHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

  // Value at quantile q in [0, 1], interpolated linearly inside its bucket.
  double Quantile(double q) const {
    uint64_t total = 0;
    for (const uint64_t c : counts_) {
      total += c;
    }
    if (total == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(total - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (rank < static_cast<double>(below + counts_[i])) {
        const auto [lo, hi] = Bounds(i);
        const double within =
            (rank - static_cast<double>(below)) / static_cast<double>(counts_[i]);
        return lo + (hi - lo) * within;
      }
      below += counts_[i];
    }
    return Bounds(counts_.size() - 1).second;
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr size_t kLinear = 64;
  static constexpr size_t kBuckets = kLinear + (64 - 6) * (1u << kSubBits);

  static size_t Bucket(uint64_t ns) {
    if (ns < kLinear) {
      return static_cast<size_t>(ns);
    }
    const int exp = 63 - std::countl_zero(ns);  // >= 6
    const uint64_t sub = (ns >> (exp - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + static_cast<size_t>(exp - 6) * (1u << kSubBits) +
           static_cast<size_t>(sub);
  }

  static std::pair<double, double> Bounds(size_t bucket) {
    if (bucket < kLinear) {
      return {static_cast<double>(bucket), static_cast<double>(bucket) + 1.0};
    }
    const size_t rel = bucket - kLinear;
    const int exp = static_cast<int>(rel >> kSubBits) + 6;
    const double width = std::ldexp(1.0, exp - kSubBits);
    const double lo =
        std::ldexp(1.0, exp) + static_cast<double>(rel & ((1u << kSubBits) - 1)) * width;
    return {lo, lo + width};
  }

  std::array<uint64_t, kBuckets> counts_{};
};

// Accumulators of one cell. All decorators of a cell share one instance; the
// shards of a sharded cell run one after another, so no field is contended.
struct CellTrace {
  uint64_t clock_ns = 0;  // calibrated cost of one clock read

  uint64_t setup_ns = 0;  // Workload::Setup
  uint64_t step_ns = 0;   // Workload::Step, hooks inside included
  uint64_t step_calls = 0;
  // Hook and observer time that ran inside Step, plus the clock reads that
  // timed it: subtracted from step_ns to get the engine's self time.
  uint64_t step_hook_ns = 0;

  uint64_t on_access_calls = 0;
  uint64_t on_access_ns = 0;  // scaled estimate
  uint64_t absorb_calls = 0;
  uint64_t absorbed_accesses = 0;
  uint64_t absorb_ns = 0;  // scaled estimate
  uint64_t tick_calls = 0;
  uint64_t tick_ns = 0;
  uint64_t alloc_hook_calls = 0;  // Init, PlacementFor, OnPageAllocated/Freed
  uint64_t alloc_hook_ns = 0;
  uint64_t observer_calls = 0;
  uint64_t observer_ns = 0;
  uint64_t timed_calls = 0;  // clock-read pairs issued by the decorators
  DurationHistogram tick_hist;

  uint64_t hooks_ns() const {
    return on_access_ns + absorb_ns + tick_ns + alloc_hook_ns;
  }

  // Host time of one timed call with the clock read's own cost removed.
  uint64_t Elapsed(uint64_t t0, uint64_t t1) {
    ++timed_calls;
    const uint64_t raw = t1 - t0;
    return raw > clock_ns ? raw - clock_ns : 0;
  }
};

class TracedWorkload : public Workload {
 public:
  TracedWorkload(std::unique_ptr<Workload> inner, CellTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string_view name() const override { return inner_->name(); }
  uint64_t footprint_bytes() const override { return inner_->footprint_bytes(); }

  void Setup(App& app, Rng& rng) override {
    const uint64_t t0 = NowNs();
    inner_->Setup(app, rng);
    trace_.setup_ns += trace_.Elapsed(t0, NowNs());
  }

  bool Step(App& app, Rng& rng) override {
    const uint64_t hooks0 = trace_.hooks_ns() + trace_.observer_ns;
    const uint64_t timed0 = trace_.timed_calls;
    const uint64_t t0 = NowNs();
    const bool more = inner_->Step(app, rng);
    trace_.step_ns += trace_.Elapsed(t0, NowNs());
    ++trace_.step_calls;
    // Each timed call inside the step added two clock reads to step_ns that
    // its own (corrected) interval does not carry.
    trace_.step_hook_ns += trace_.hooks_ns() + trace_.observer_ns - hooks0 +
                           (trace_.timed_calls - timed0 - 1) * 2 * trace_.clock_ns;
    return more;
  }

  std::unique_ptr<Workload> ShardSlice(uint32_t shard,
                                       uint32_t num_shards) const override {
    std::unique_ptr<Workload> slice = inner_->ShardSlice(shard, num_shards);
    if (slice == nullptr) {
      return nullptr;
    }
    return std::make_unique<TracedWorkload>(std::move(slice), trace_);
  }

 private:
  std::unique_ptr<Workload> inner_;
  CellTrace& trace_;
};

class TracedPolicy : public TieringPolicy {
 public:
  TracedPolicy(std::unique_ptr<TieringPolicy> inner, CellTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string_view name() const override { return inner_->name(); }

  void Init(PolicyContext& ctx) override {
    const uint64_t t0 = NowNs();
    inner_->Init(ctx);
    ChargeAlloc(t0);
  }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    ++trace_.on_access_calls;
    if (--access_countdown_ != 0) [[likely]] {
      inner_->OnAccess(ctx, index, page, access);
      return;
    }
    access_countdown_ = kAccessStride;
    const uint64_t t0 = NowNs();
    inner_->OnAccess(ctx, index, page, access);
    trace_.on_access_ns += trace_.Elapsed(t0, NowNs()) * kAccessStride;
  }

  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    return inner_->RunAbsorbLimit(ctx, is_write);
  }

  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    ++trace_.absorb_calls;
    trace_.absorbed_accesses += n;
    if (--absorb_countdown_ != 0) [[likely]] {
      inner_->AbsorbRun(ctx, index, page, access, n);
      return;
    }
    absorb_countdown_ = kAccessStride;
    const uint64_t t0 = NowNs();
    inner_->AbsorbRun(ctx, index, page, access, n);
    trace_.absorb_ns += trace_.Elapsed(t0, NowNs()) * kAccessStride;
  }

  void OnPageAllocated(PolicyContext& ctx, PageIndex index,
                       PageInfo& page) override {
    const uint64_t t0 = NowNs();
    inner_->OnPageAllocated(ctx, index, page);
    ChargeAlloc(t0);
  }

  void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) override {
    const uint64_t t0 = NowNs();
    inner_->OnPageFreed(ctx, index, page);
    ChargeAlloc(t0);
  }

  void Tick(PolicyContext& ctx) override {
    const uint64_t t0 = NowNs();
    inner_->Tick(ctx);
    const uint64_t ns = trace_.Elapsed(t0, NowNs());
    ++trace_.tick_calls;
    trace_.tick_ns += ns;
    trace_.tick_hist.Add(ns);
  }

  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes,
                            bool use_thp) override {
    const uint64_t t0 = NowNs();
    const AllocOptions opts = inner_->PlacementFor(ctx, bytes, use_thp);
    ChargeAlloc(t0);
    return opts;
  }

  ClassifiedSizes Classify(PolicyContext& ctx) override {
    return inner_->Classify(ctx);
  }

 private:
  void ChargeAlloc(uint64_t t0) {
    ++trace_.alloc_hook_calls;
    trace_.alloc_hook_ns += trace_.Elapsed(t0, NowNs());
  }

  std::unique_ptr<TieringPolicy> inner_;
  CellTrace& trace_;
  uint32_t access_countdown_ = kAccessStride;
  uint32_t absorb_countdown_ = kAccessStride;
};

class TracedObserver : public EngineObserver {
 public:
  TracedObserver(EngineObserver& inner, CellTrace& trace)
      : inner_(inner), trace_(trace) {}

  void OnTick(Engine& engine) override {
    const uint64_t t0 = NowNs();
    inner_.OnTick(engine);
    Charge(t0);
  }

  void OnRunEnd(Engine& engine) override {
    const uint64_t t0 = NowNs();
    inner_.OnRunEnd(engine);
    Charge(t0);
  }

 private:
  void Charge(uint64_t t0) {
    ++trace_.observer_calls;
    trace_.observer_ns += trace_.Elapsed(t0, NowNs());
  }

  EngineObserver& inner_;
  CellTrace& trace_;
};

}  // namespace memtis::layer_trace

#endif  // MEMTIS_SIM_BENCH_E2E_LAYER_TRACE_H_
