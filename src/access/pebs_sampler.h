// PEBS-style hardware event sampler with MEMTIS's dynamic period adaptation.
//
// Models Intel PEBS as MEMTIS uses it: two event classes (LLC load misses and
// retired stores), each sampled once every `period` events, delivering the
// exact virtual address. A ksampled-like controller periodically computes the
// exponential moving average of the (modelled) CPU time spent processing
// samples and nudges the periods so usage stays under a cap — the paper's 3 %
// of one core with 0.5 % hysteresis (§4.1.1).

#ifndef MEMTIS_SIM_SRC_ACCESS_PEBS_SAMPLER_H_
#define MEMTIS_SIM_SRC_ACCESS_PEBS_SAMPLER_H_

#include <cstdint>

#include "src/access/sample.h"
#include "src/common/stats.h"
#include "src/fault/fault.h"
#include "src/mem/types.h"

namespace memtis {

struct PebsConfig {
  // Initial sampling periods. The paper uses 200 (LLC miss) / 100000 (store)
  // at 60+ GB scale; defaults here are scaled to the simulator's footprints
  // and adapt at runtime anyway.
  uint64_t load_period = 17;
  uint64_t store_period = 1201;
  uint64_t min_period = 3;
  uint64_t max_period = 1u << 20;

  // Modelled cost for ksampled to drain and process one PEBS record.
  uint64_t sample_cost_ns = 150;

  // CPU budget: fraction of one core (paper: 3 % with 0.5 % hysteresis).
  double cpu_limit = 0.03;
  double cpu_hysteresis = 0.005;
  // EMA decay for the usage estimate.
  double usage_ema_decay = 0.3;
  // How often (virtual ns) the controller re-evaluates usage.
  uint64_t adjust_interval_ns = 2'000'000;
  // Multiplicative step applied to the period on each adjustment.
  double period_step = 1.25;

  // Sample-buffer overflow model. 0 = unbounded buffer (no overflow, the
  // default — byte-identical to the pre-overflow-model sampler). When > 0,
  // at most `buffer_capacity` records accumulate between ksampled drains
  // (every `drain_interval_ns` of virtual time); records arriving into a
  // full buffer are dropped and counted, never delivered.
  uint64_t buffer_capacity = 0;
  uint64_t drain_interval_ns = 200'000;
};

struct PebsStats {
  uint64_t samples[kNumSampleTypes] = {0, 0};  // delivered to the owner
  // Records lost before delivery, by cause: buffer overflow (capacity model)
  // and injected kSampleDrop faults. Dropped records are never delivered, so
  // the owner's sample ledger stays exact: processed == total_samples().
  uint64_t dropped[kNumSampleTypes] = {0, 0};
  uint64_t overflow_drops = 0;
  uint64_t fault_drops = 0;
  uint64_t period_raises = 0;
  uint64_t period_drops = 0;
  // Virtual time of the most recent period adaptation (0 = never adapted).
  uint64_t last_period_change_ns = 0;
  uint64_t total_samples() const { return samples[0] + samples[1]; }
  uint64_t total_dropped() const { return dropped[0] + dropped[1]; }
  uint64_t period_changes() const { return period_raises + period_drops; }
};

class PebsSampler {
 public:
  explicit PebsSampler(const PebsConfig& config = {});

  // Fault injector hosting the kSampleDrop site. Not owned; nullptr (the
  // default) disables injected drops.
  void AttachFaults(FaultInjector* faults) { faults_ = faults; }

  // Counts one hardware event; returns true when this event is sampled AND
  // the record survives to delivery (the caller then has a SampleRecord to
  // process). Records lost to buffer overflow or an injected fault return
  // false and are counted in stats().dropped. Kept branch-light: one
  // decrement per access on the common path.
  bool OnEvent(SampleType type, uint64_t now_ns) {
    if (--countdown_[static_cast<int>(type)] > 0) {
      return false;
    }
    countdown_[static_cast<int>(type)] = period_[static_cast<int>(type)];
    return Deliver(type, now_ns);
  }

  // Called by the owner after processing a sampled record, with the current
  // virtual time; accumulates modelled ksampled CPU time and periodically runs
  // the period controller. Returns the ns charged for this sample.
  uint64_t AccountSample(uint64_t now_ns);

  // --- Bulk absorption (batched replay) ---------------------------------------
  //
  // With countdown c, the next c-1 OnEvent(type) calls are provably pure
  // decrements: each does --countdown, lands on a value >= 1, and returns false
  // with no other side effect (delivery, drops, and period adaptation all
  // happen only when the countdown reaches zero). The engine's batched access
  // path exploits this: EventsUntilSample bounds how many upcoming events can
  // be absorbed, AbsorbEvents applies them as one subtraction. Absorbing
  // n <= EventsUntilSample(type) events leaves the sampler in exactly the state
  // n scalar OnEvent calls would have.
  uint64_t EventsUntilSample(SampleType type) const {
    const int64_t c = countdown_[static_cast<int>(type)];
    return c > 1 ? static_cast<uint64_t>(c - 1) : 0;
  }
  void AbsorbEvents(SampleType type, uint64_t n) {
    countdown_[static_cast<int>(type)] -= static_cast<int64_t>(n);
  }

  uint64_t period(SampleType type) const { return period_[static_cast<int>(type)]; }
  double cpu_usage() const { return usage_ema_.value(); }
  uint64_t busy_ns() const { return busy_ns_; }
  const PebsStats& stats() const { return stats_; }
  const PebsConfig& config() const { return config_; }

  // Test-only fault injection: records a phantom sample in the stats without
  // the owner ever processing it, desynchronizing the sample ledger so the
  // auditor's histogram-mass/sample-count check fires.
  void TestOnlyRecordPhantomSample(SampleType type) {
    ++stats_.samples[static_cast<int>(type)];
  }

  // Checkpointing: periods, countdowns (signed — the batched path can drive
  // them through zero), controller clocks, buffer fill, and stats.
  void VisitState(StateCodec& c) {
    c.Array("period", period_);
    c.Array("countdown", countdown_);
    c.Field("busy_ns", busy_ns_);
    c.Field("window_busy_ns", window_busy_ns_);
    c.Field("last_adjust_ns", last_adjust_ns_);
    c.Field("buffer_fill", buffer_fill_);
    c.Field("last_drain_ns", last_drain_ns_);
    c.Record("usage_ema", usage_ema_);
    c.Array("samples", stats_.samples);
    c.Array("dropped", stats_.dropped);
    c.Field("overflow_drops", stats_.overflow_drops);
    c.Field("fault_drops", stats_.fault_drops);
    c.Field("period_raises", stats_.period_raises);
    c.Field("period_drops", stats_.period_drops);
    c.Field("last_period_change_ns", stats_.last_period_change_ns);
  }

 private:
  // A record fired; decide whether it reaches the owner. Stays inline so the
  // no-faults unbounded-buffer configuration costs two predictable branches.
  bool Deliver(SampleType type, uint64_t now_ns) {
    const int idx = static_cast<int>(type);
    if (faults_ != nullptr &&
        faults_->ShouldInject(FaultSite::kSampleDrop, now_ns)) [[unlikely]] {
      ++stats_.dropped[idx];
      ++stats_.fault_drops;
      return false;
    }
    if (config_.buffer_capacity > 0) [[unlikely]] {
      if (now_ns >= last_drain_ns_ + config_.drain_interval_ns) {
        buffer_fill_ = 0;
        last_drain_ns_ = now_ns;
      }
      if (buffer_fill_ >= config_.buffer_capacity) {
        ++stats_.dropped[idx];
        ++stats_.overflow_drops;
        return false;
      }
      ++buffer_fill_;
    }
    ++stats_.samples[idx];
    return true;
  }

  void MaybeAdjust(uint64_t now_ns);
  void ScalePeriods(double factor);

  PebsConfig config_;
  uint64_t period_[kNumSampleTypes];
  int64_t countdown_[kNumSampleTypes];
  uint64_t busy_ns_ = 0;
  uint64_t window_busy_ns_ = 0;
  uint64_t last_adjust_ns_ = 0;
  uint64_t buffer_fill_ = 0;
  uint64_t last_drain_ns_ = 0;
  Ema usage_ema_;
  PebsStats stats_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_ACCESS_PEBS_SAMPLER_H_
