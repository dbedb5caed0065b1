// Run metrics: the quantities every paper figure is built from.

#ifndef MEMTIS_SIM_SRC_SIM_METRICS_H_
#define MEMTIS_SIM_SRC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/mem/memory_system.h"
#include "src/mem/tlb.h"
#include "src/sim/cpu_account.h"

namespace memtis {

class JsonWriter;

// Sizes of the hot/warm/cold sets as classified by a policy (Fig. 2 / Fig. 9).
struct ClassifiedSizes {
  uint64_t hot_bytes = 0;
  uint64_t warm_bytes = 0;
  uint64_t cold_bytes = 0;

  template <class V>
  void VisitFields(V& v) {
    v.Field("hot_bytes", hot_bytes);
    v.Field("warm_bytes", warm_bytes);
    v.Field("cold_bytes", cold_bytes);
  }
};

// Periodic snapshot for time-series figures.
struct TimelinePoint {
  uint64_t t_ns = 0;
  ClassifiedSizes classified;
  uint64_t fast_used_pages = 0;
  uint64_t rss_pages = 0;
  double window_fast_ratio = 0.0;  // fast-tier access ratio in the window
  double window_mops = 0.0;        // throughput (million accesses / virtual s)

  template <class V>
  void VisitFields(V& v) {
    v.Field("t_ns", t_ns);
    v.Record("classified", classified);
    v.Field("fast_used_pages", fast_used_pages);
    v.Field("rss_pages", rss_pages);
    v.Field("window_fast_ratio", window_fast_ratio);
    v.Field("window_mops", window_mops);
  }
};

// Per-tenant slice of a co-located run, attributed by the tenant plane
// (src/tenant/): engine counter deltas around each tenant's batches plus the
// memory system's per-tenant quota accounting. Empty for single-workload runs,
// so the `per_tenant` JSON field is omitted and legacy documents (and the
// golden-metrics byte-compares) are unchanged.
struct TenantMetrics {
  std::string name;      // tenant label (defaults to the workload name)
  std::string workload;  // registered workload the tenant runs
  uint64_t accesses = 0;
  uint64_t fast_accesses = 0;
  uint64_t capacity_accesses = 0;
  uint64_t active_ns = 0;   // virtual time inside this tenant's batches
  uint64_t arrive_ns = 0;   // churn: when the tenant joined (0 = from start)
  uint64_t depart_ns = 0;   // churn: when it left and was reclaimed (0 = never)
  bool finished = false;    // natural completion before the run ended
  uint64_t quota_frames = 0;  // resolved fast-tier cap in 4 KiB frames (0 = none)
  uint64_t fast_pages = 0;    // fast-tier usage at run end (or at departure)
  uint64_t quota_denied_allocs = 0;
  uint64_t quota_denied_promotions = 0;
  uint64_t quota_steals = 0;
  uint64_t budget_denied_promotions = 0;

  double fast_hit_ratio() const {
    const uint64_t total = fast_accesses + capacity_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_accesses) / static_cast<double>(total);
  }
  // Latency per access over the tenant's own batches; the fairness report
  // compares this against a solo run to get the interference slowdown.
  double ns_per_access() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(active_ns) / static_cast<double>(accesses);
  }

  template <class V>
  void VisitFields(V& v) {
    v.Field("name", name);
    v.Field("workload", workload);
    v.Field("accesses", accesses);
    v.Field("fast_accesses", fast_accesses);
    v.Field("capacity_accesses", capacity_accesses);
    v.Field("active_ns", active_ns);
    v.Field("arrive_ns", arrive_ns);
    v.Field("depart_ns", depart_ns);
    v.Field("finished", finished);
    v.Field("quota_frames", quota_frames);
    v.Field("fast_pages", fast_pages);
    v.Field("quota_denied_allocs", quota_denied_allocs);
    v.Field("quota_denied_promotions", quota_denied_promotions);
    v.Field("quota_steals", quota_steals);
    v.Field("budget_denied_promotions", budget_denied_promotions);
    v.Derived("fast_hit_ratio", [this] { return fast_hit_ratio(); });
    v.Derived("ns_per_access", [this] { return ns_per_access(); });
  }
};

struct Metrics {
  // Access counts.
  uint64_t accesses = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t fast_accesses = 0;
  uint64_t capacity_accesses = 0;

  // Virtual app time (ns), before daemon-contention inflation.
  uint64_t app_ns = 0;
  // Portion of app_ns spent on critical-path tiering work (fault-path
  // migrations, hint faults, shootdowns) — the paper's §2.2 complaint.
  uint64_t critical_path_ns = 0;

  uint32_t cores = 20;
  bool cpu_contention = true;

  CpuAccount cpu;
  TlbStats tlb;
  MigrationStats migration;
  // Injection counters for the run's FaultPlan (all zero when fault-free).
  FaultStats faults;

  uint64_t final_rss_pages = 0;
  uint64_t peak_rss_pages = 0;
  uint64_t final_fast_used_pages = 0;
  double final_huge_ratio = 0.0;

  std::vector<TimelinePoint> timeline;

  // Per-tenant attribution (see TenantMetrics); index = TenantId. Filled only
  // by the tenant plane — empty means a legacy single-workload run.
  std::vector<TenantMetrics> per_tenant;

  double fast_hit_ratio() const {
    const uint64_t total = fast_accesses + capacity_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_accesses) / static_cast<double>(total);
  }

  // Wall time after charging daemon CPU against the app's cores.
  double EffectiveRuntimeNs() const {
    double t = static_cast<double>(app_ns);
    if (cpu_contention && app_ns > 0) {
      const double share = static_cast<double>(cpu.total_busy()) /
                           (static_cast<double>(app_ns) * cores);
      t *= 1.0 + share;
    }
    return t;
  }

  // Throughput in million accesses per virtual second.
  double Mops() const {
    const double t = EffectiveRuntimeNs();
    return t == 0.0 ? 0.0 : static_cast<double>(accesses) * 1e3 / t;
  }

  // The one field list (src/common/json_fields.h): counters, the
  // cpu/tlb/migration/faults breakdowns, derived ratios, per-tenant slices
  // and the timeline, in the stable order of the result sinks' schema (see
  // src/runner/result_sink.h and the README's "Running sweeps" schema). A
  // new field is added here and nowhere else: the JSON writer and reader
  // (DecodeJson) and the snapshot codec (src/snapshot/state_codec.h) all
  // walk this list.
  template <class V>
  void VisitFields(V& v) {
    v.Field("accesses", accesses);
    v.Field("loads", loads);
    v.Field("stores", stores);
    v.Field("fast_accesses", fast_accesses);
    v.Field("capacity_accesses", capacity_accesses);
    v.Field("app_ns", app_ns);
    v.Field("critical_path_ns", critical_path_ns);
    v.Field("cores", cores);
    v.Field("cpu_contention", cpu_contention);
    v.Record("cpu", cpu);
    v.Record("tlb", tlb);
    v.Record("migration", migration);
    v.Record("faults", faults);
    v.Field("final_rss_pages", final_rss_pages);
    v.Field("peak_rss_pages", peak_rss_pages);
    v.Field("final_fast_used_pages", final_fast_used_pages);
    v.Field("final_huge_ratio", final_huge_ratio);
    // Derived quantities, so sinks never re-implement the formulas.
    v.Derived("fast_hit_ratio", [this] { return fast_hit_ratio(); });
    v.Derived("effective_runtime_ns", [this] { return EffectiveRuntimeNs(); });
    v.Derived("mops", [this] { return Mops(); });
    // Omitted when empty so legacy single-workload documents are unchanged.
    if (v.WriteIf(!per_tenant.empty())) {
      v.Array("per_tenant", per_tenant);
    }
    v.Array("timeline", timeline);
  }

  // The field list as a JSON object. `indent` as in JsonWriter.
  std::string ToJson(int indent = 0) const;

  // Same object written into an in-progress document (used by the sinks to
  // nest metrics inside a job record). `include_timeline` = false drops the
  // timeline array for compact sweep files.
  void WriteJson(JsonWriter& w, bool include_timeline = true) const;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_METRICS_H_
