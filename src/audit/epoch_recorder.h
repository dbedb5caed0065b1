// Per-epoch observability: periodic snapshots of the simulation's counters.
//
// Where the timeline (Metrics::timeline) records what the paper's figures
// need, the epoch recorder captures the internal mechanics — migration flow by
// direction, split/collapse activity, sampler period adaptation, histogram
// shape, queue backlogs — at a fixed virtual-time cadence into a bounded ring
// buffer. Serialized through JsonWriter into memtis_run's --audit-json sink.

#ifndef MEMTIS_SIM_SRC_AUDIT_EPOCH_RECORDER_H_
#define MEMTIS_SIM_SRC_AUDIT_EPOCH_RECORDER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/memtis/histogram.h"
#include "src/sim/engine.h"

namespace memtis {

class JsonWriter;
class StateCodec;

// One epoch's worth of telemetry. Event counters are deltas over the epoch;
// occupancy, periods, thresholds, bins, and backlogs are sampled at its end.
struct EpochSample {
  uint64_t epoch = 0;  // 0-based, monotonically increasing even after wrap
  uint64_t t_ns = 0;   // virtual time at the end of the epoch

  // Deltas since the previous sample.
  uint64_t accesses = 0;
  uint64_t promoted_4k = 0;
  uint64_t demoted_4k = 0;
  uint64_t splits = 0;
  uint64_t collapses = 0;
  uint64_t demand_faults = 0;
  uint64_t shootdowns = 0;
  uint64_t samples = 0;
  uint64_t period_raises = 0;
  uint64_t period_drops = 0;

  // Instantaneous state.
  uint64_t fast_used_pages = 0;
  uint64_t rss_pages = 0;

  // Per-tenant fast-tier occupancy (index = TenantId), the fairness report's
  // occupancy timeline. Recorded — and serialized — only when the run
  // registered tenants beyond the default, so legacy documents are unchanged.
  std::vector<uint64_t> tenant_fast_pages;

  // MEMTIS-specific state (zero / -1 when the policy is not MEMTIS).
  bool memtis = false;
  uint64_t load_period = 0;
  uint64_t store_period = 0;
  int hot_bin = -1;
  int warm_bin = -1;
  int cold_bin = -1;
  std::array<uint64_t, AccessHistogram::kBins> hist_bins{};
  uint64_t promotion_backlog = 0;
  uint64_t demotion_backlog = 0;
  uint64_t split_backlog = 0;

  // The one field list (src/common/json_fields.h); WriteJson, DecodeJson
  // and the snapshot codec all walk it, so a new field is added here only.
  template <class V>
  void VisitFields(V& v) {
    v.Field("epoch", epoch);
    v.Field("t_ns", t_ns);
    v.Field("accesses", accesses);
    v.Field("promoted_4k", promoted_4k);
    v.Field("demoted_4k", demoted_4k);
    v.Field("splits", splits);
    v.Field("collapses", collapses);
    v.Field("demand_faults", demand_faults);
    v.Field("shootdowns", shootdowns);
    v.Field("samples", samples);
    v.Field("period_raises", period_raises);
    v.Field("period_drops", period_drops);
    v.Field("fast_used_pages", fast_used_pages);
    v.Field("rss_pages", rss_pages);
    if (v.WriteIf(!tenant_fast_pages.empty())) {
      v.Array("tenant_fast_pages", tenant_fast_pages);
    }
    v.Field("memtis", memtis);
    if (memtis) {
      v.Field("load_period", load_period);
      v.Field("store_period", store_period);
      v.Field("hot_bin", hot_bin);
      v.Field("warm_bin", warm_bin);
      v.Field("cold_bin", cold_bin);
      v.Array("hist_bins", hist_bins);
      v.Field("promotion_backlog", promotion_backlog);
      v.Field("demotion_backlog", demotion_backlog);
      v.Field("split_backlog", split_backlog);
    }
  }

  void WriteJson(JsonWriter& w) const;
};

// EngineObserver that emits an EpochSample every `interval_ns` of virtual time
// (checked at tick granularity) and once at run end, into a ring buffer of
// `capacity` samples — old epochs are overwritten, never reallocated, so a
// long run records bounded state.
class EpochRecorder : public EngineObserver {
 public:
  struct Options {
    uint64_t interval_ns = 1'000'000;  // virtual time per epoch
    uint64_t capacity = 4096;          // ring-buffer slots
  };

  EpochRecorder();
  explicit EpochRecorder(const Options& options);

  void OnTick(Engine& engine) override;
  void OnRunEnd(Engine& engine) override;

  // Recorded samples in chronological order (at most `capacity`; the oldest
  // are dropped once the ring wraps).
  std::vector<EpochSample> samples() const;

  uint64_t recorded_total() const { return recorded_total_; }
  uint64_t dropped() const {
    return recorded_total_ > ring_.size() ? recorded_total_ - ring_.size() : 0;
  }
  const Options& options() const { return options_; }

  // {"interval_ns":..., "recorded_total":..., "dropped":..., "samples":[...]}
  void WriteJson(JsonWriter& w) const;

  // Checkpointing: ring slots (raw index order), total count, and the epoch
  // schedule/delta baselines.
  void VisitState(StateCodec& c);

 private:
  void Record(Engine& engine);

  struct BaseCounters {
    uint64_t accesses = 0;
    uint64_t promoted_4k = 0;
    uint64_t demoted_4k = 0;
    uint64_t splits = 0;
    uint64_t collapses = 0;
    uint64_t demand_faults = 0;
    uint64_t shootdowns = 0;
    uint64_t samples = 0;
    uint64_t period_raises = 0;
    uint64_t period_drops = 0;

    template <class V>
    void VisitFields(V& v) {
      v.Field("accesses", accesses);
      v.Field("promoted_4k", promoted_4k);
      v.Field("demoted_4k", demoted_4k);
      v.Field("splits", splits);
      v.Field("collapses", collapses);
      v.Field("demand_faults", demand_faults);
      v.Field("shootdowns", shootdowns);
      v.Field("samples", samples);
      v.Field("period_raises", period_raises);
      v.Field("period_drops", period_drops);
    }
  };

  Options options_;
  std::vector<EpochSample> ring_;
  uint64_t recorded_total_ = 0;
  uint64_t next_epoch_ns_;
  BaseCounters prev_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_AUDIT_EPOCH_RECORDER_H_
