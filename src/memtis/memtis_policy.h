// MemtisPolicy: the paper's contribution, on the simulator's policy interface.
//
// Pipeline (paper Fig. 4): PEBS samples update per-page hotness and two
// histograms — the page access histogram (OS page granularity, drives the
// hot/warm/cold thresholds via Algorithm 1) and the emulated base page
// histogram (4 KiB granularity, drives the would-be-base-page-only hit-ratio
// estimate eHR). Thresholds adapt every adapt_interval samples; cooling
// halves all counters every cooling_interval samples (EMA with decay 0.5) and
// recomputes huge-page skewness; kmigrated promotes hot pages, demotes
// cold-then-warm pages to keep 2 % free, and splinters the top-Ns most skewed
// huge pages when eHR - rHR exceeds the benefit gate. All of it runs in the
// background; the app only ever pays for TLB shootdowns.

#ifndef MEMTIS_SIM_SRC_MEMTIS_MEMTIS_POLICY_H_
#define MEMTIS_SIM_SRC_MEMTIS_MEMTIS_POLICY_H_

#include <string>
#include <vector>

#include "src/access/pebs_sampler.h"
#include "src/access/pt_scanner.h"
#include "src/common/stats.h"
#include "src/mem/page_list.h"
#include "src/memtis/config.h"
#include "src/memtis/histogram.h"
#include "src/sim/policy.h"

namespace memtis {

class MemtisPolicy : public TieringPolicy {
 public:
  MemtisPolicy() : MemtisPolicy(MemtisConfig{}) {}
  explicit MemtisPolicy(const MemtisConfig& config)
      : config_(config), sampler_(config.pebs) {}

  std::string_view name() const override { return "memtis"; }

  void Init(PolicyContext& ctx) override;
  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override;
  // Batched replay: OnAccess is sampler-gated, so accesses that only decrement
  // the PEBS countdown are absorbable in bulk (see PebsSampler::AbsorbEvents).
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)ctx;
    return sampler_.EventsUntilSample(is_write ? SampleType::kStore
                                               : SampleType::kLlcLoadMiss);
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    (void)ctx;
    (void)index;
    (void)page;
    sampler_.AbsorbEvents(
        access.is_write ? SampleType::kStore : SampleType::kLlcLoadMiss, n);
  }
  void OnPageAllocated(PolicyContext& ctx, PageIndex index, PageInfo& page) override;
  void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) override;
  void Tick(PolicyContext& ctx) override;
  ClassifiedSizes Classify(PolicyContext& ctx) override;

  // --- Introspection for experiments -----------------------------------------

  struct Stats {
    uint64_t coolings = 0;
    uint64_t threshold_adaptations = 0;
    uint64_t benefit_estimations = 0;
    uint64_t split_rounds_triggered = 0;  // estimations that selected candidates
    uint64_t splits_performed = 0;
    uint64_t split_subpages_to_fast = 0;
    uint64_t collapses_performed = 0;
    double last_ehr = 0.0;  // estimated base-page-only hit ratio
    double last_rhr = 0.0;  // measured fast-tier sample hit ratio

    // JSON field list (src/common/json_fields.h).
    template <class V>
    void VisitFields(V& v) {
      v.Field("coolings", coolings);
      v.Field("threshold_adaptations", threshold_adaptations);
      v.Field("benefit_estimations", benefit_estimations);
      v.Field("split_rounds_triggered", split_rounds_triggered);
      v.Field("splits_performed", splits_performed);
      v.Field("split_subpages_to_fast", split_subpages_to_fast);
      v.Field("collapses_performed", collapses_performed);
      v.Field("last_ehr", last_ehr);
      v.Field("last_rhr", last_rhr);
    }
  };
  const Stats& stats() const { return stats_; }
  const PebsSampler& sampler() const { return sampler_; }
  int hot_threshold_bin() const { return thresholds_.hot; }
  int warm_threshold_bin() const { return thresholds_.warm; }
  int cold_threshold_bin() const { return thresholds_.cold; }
  const AccessHistogram& page_histogram() const { return hist_; }
  const AccessHistogram& base_histogram() const { return base_hist_; }

  // Per-tenant page histograms (the paper's per-memcg scoping): hist_
  // partitioned by page ownership, maintained at the same five mutation
  // sites. Observation-only — thresholds still come from the global hist_ —
  // so runs that never register tenants stay byte-identical. Index = TenantId;
  // grown lazily, so it can be shorter than the memory system's tenant count.
  const std::vector<AccessHistogram>& tenant_histograms() const {
    return tenant_hists_;
  }
  // Mean of the window eHR estimates over the whole run (Fig. 12).
  double mean_ehr() const { return ehr_stat_.count() == 0 ? 0.0 : ehr_stat_.mean(); }
  double mean_rhr_sampled() const {
    return rhr_stat_.count() == 0 ? 0.0 : rhr_stat_.mean();
  }

  // Samples this policy has drained from the sampler and folded into the
  // histograms. The audit layer checks this ledger against the sampler's own
  // sample count: the two advance in lock step, so any drift means samples
  // were produced but never reached the histogram pipeline (or vice versa).
  uint64_t samples_processed() const { return samples_processed_; }

  // Queue backlogs, for per-epoch observability.
  uint64_t promotion_backlog() const { return promotion_list_.size(); }
  uint64_t demotion_backlog() const { return demotion_list_.size(); }
  uint64_t split_backlog() const { return split_queue_.size(); }

  // Test-only fault injection: direct sampler access, used to desynchronize
  // the sample ledger in auditor tests.
  PebsSampler& TestOnlyMutableSampler() { return sampler_; }

  // Test/bench-only: runs one cooling event immediately (normally cooling
  // fires every cooling_interval_samples). Used by bench/perf/hotpath_bench
  // to measure the cooling-scan cost in isolation.
  void TestOnlyForceCooling(PolicyContext& ctx) { CoolingEvent(ctx); }

  // Test/debug audit: recomputes both histograms from the live page metadata
  // and compares them (and every cached bin) against the incrementally
  // maintained state. O(pages x subpages); returns false on any mismatch.
  // The diagnostic variant describes the first mismatch in `error`.
  bool ValidateHistograms(MemorySystem& mem) const {
    return ValidateHistograms(mem, nullptr);
  }
  bool ValidateHistograms(MemorySystem& mem, std::string* error) const;

  // Checkpointing: the full mutable pipeline — sampler, histograms (global,
  // base, per-tenant), thresholds, event counters, queues, skew buckets,
  // hybrid scanner, and run statistics. Init() must run before a load
  // (re-attaches the sampler's fault injector; the load then overwrites the
  // thresholds Init reset).
  void VisitState(StateCodec& c) override;

 private:
  // Hotness of one 4 KiB unit when treated as a base page (used by the
  // emulated base-page histogram and the skewness math).
  static uint64_t UnitHotness(uint64_t count) { return count * kSubpagesPerHuge; }

  // Lazily applies pending cooling epochs to a page (and its subpages).
  void SyncCooling(PageInfo& page) const;

  void AdaptThresholds(PolicyContext& ctx);
  void CoolingEvent(PolicyContext& ctx);
  void EstimateSplitBenefit(PolicyContext& ctx);
  void SelectSplitCandidates(PolicyContext& ctx, uint64_t how_many);
  void ProcessSplitQueue(PolicyContext& ctx);
  void RunMigration(PolicyContext& ctx);
  // Promotes `hot` by swapping it with a cold fast-tier page of the same kind
  // (config_.exchange_when_full). Returns false when no victim qualifies or
  // the migration budget is exhausted.
  bool TryExchangePromotion(PolicyContext& ctx, PageIndex hot);
  void HybridScan(PolicyContext& ctx);
  void DemoteForSpace(PolicyContext& ctx, uint64_t target_free_frames);
  void RefillDemotionList(PolicyContext& ctx);
  void TryCollapse(PolicyContext& ctx, const std::vector<Vpn>& candidates);

  // Histogram bookkeeping around structural changes.
  void AccountPageAdded(PolicyContext& ctx, PageInfo& page);
  void AccountPageRemoved(PolicyContext& ctx, PageInfo& page);

  bool IsHotBin(int bin) const { return bin >= thresholds_.hot; }
  bool IsColdBin(int bin) const {
    return config_.use_warm_set ? bin < thresholds_.cold : bin < thresholds_.hot;
  }

  MemtisConfig config_;
  PebsSampler sampler_;

  // The owning tenant's slice of hist_ (lazily grown by page.tenant).
  AccessHistogram& TenantHist(const PageInfo& page) {
    if (page.tenant >= tenant_hists_.size()) {
      tenant_hists_.resize(static_cast<size_t>(page.tenant) + 1);
    }
    return tenant_hists_[page.tenant];
  }

  AccessHistogram hist_;       // OS-page histogram (4 KiB units per page size)
  AccessHistogram base_hist_;  // emulated base-page histogram
  std::vector<AccessHistogram> tenant_hists_;  // hist_ split by owner
  AccessHistogram::Thresholds thresholds_;
  int base_hot_bin_ = 1;  // T_hot over the emulated base-page histogram

  uint32_t cool_epoch_ = 0;

  // Sample-driven event counters.
  uint64_t samples_processed_ = 0;  // lifetime ledger (audit cross-check)
  uint64_t samples_since_adapt_ = 0;
  uint64_t samples_since_cool_ = 0;
  uint64_t samples_since_estimate_ = 0;

  // eHR / rHR window counters (reset per estimation).
  uint64_t win_samples_ = 0;
  uint64_t win_fast_hits_ = 0;
  uint64_t win_base_hot_hits_ = 0;
  double avg_samples_per_hp_ = 1.0;  // refreshed during cooling scans
  uint32_t consecutive_gap_windows_ = 0;  // stability gate for splitting

  PageList promotion_list_;
  PageList demotion_list_;
  PageList split_queue_;
  PageIndex demotion_refill_cursor_ = 0;
  PageIndex exchange_cursor_ = 0;

  // Skewness buckets rebuilt at each cooling scan: bucket b holds huge pages
  // with floor(log2(S_i)) == b (paper §4.3.2's "array of skewness factors").
  static constexpr int kSkewBuckets = 48;
  std::vector<PageRef> skew_buckets_[kSkewBuckets];

  uint64_t next_migrate_ns_ = 0;

  // Hybrid-tracking extension state (config_.hybrid_scan).
  PtScanner hybrid_scanner_;
  uint64_t next_hybrid_scan_ns_ = 0;

  RunningStat ehr_stat_;
  RunningStat rhr_stat_;
  Stats stats_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEMTIS_MEMTIS_POLICY_H_
