// HeMem (Raybuck et al., SOSP '21) behavioural model.
//
// Per the paper's Table 1 and §2.2/§6.2.9: PEBS-based sampling with *static*
// thresholds — a page whose sample count reaches `hot_threshold` is hot and
// promoted in the background; when any page's count reaches the cooling
// threshold, every page's count is halved. Promotion and demotion are paused
// while the identified hot set exceeds the fast tier (anti-thrashing, paper
// §7). Its sampling thread spins on the PEBS buffers, burning ~a full core
// (paper §6.2.1), and small allocations always land in the fast tier
// (over-allocation, paper Table 3).

#ifndef MEMTIS_SIM_SRC_POLICIES_HEMEM_H_
#define MEMTIS_SIM_SRC_POLICIES_HEMEM_H_

#include "src/access/pebs_sampler.h"
#include "src/mem/page_list.h"
#include "src/policies/policy_util.h"
#include "src/sim/policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class HeMemPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t hot_threshold = 8;      // static hot threshold (sample count)
    uint64_t cool_threshold = 18;    // any page reaching this triggers cooling
    uint64_t migrate_period_ns = 500'000;
    uint64_t small_alloc_bytes = 4ull << 20;  // always placed in fast tier
    // The sampling thread spins; fraction of one core it burns.
    double spin_core_share = 1.0;
    uint64_t cool_scan_cost_per_page_ns = 25;
    // Opt-in direct page exchange ("hemem-exchange" in the registry): when a
    // promotion finds no free fast frame and nothing cold will demote, swap
    // the hot page with a cold fast victim instead of stalling the round.
    bool use_exchange = false;
    PebsConfig pebs = DefaultPebs();
  };

  static PebsConfig DefaultPebs() {
    PebsConfig cfg;
    // HeMem uses fixed periods (no CPU-budget adaptation).
    cfg.load_period = 19;
    cfg.store_period = 521;
    cfg.cpu_limit = 1.0;  // controller effectively disabled
    return cfg;
  }

  HeMemPolicy() : HeMemPolicy(Params{}) {}
  explicit HeMemPolicy(Params params) : params_(params), sampler_(params.pebs) {}

  std::string_view name() const override { return "hemem"; }

  void Init(PolicyContext& ctx) override { sampler_.AttachFaults(ctx.faults); }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override;

  // Batched replay: like MEMTIS, OnAccess is gated on the PEBS countdown, so
  // non-sampling accesses absorb as one countdown subtraction.
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

  void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) override;

  void Tick(PolicyContext& ctx) override;

  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes, bool use_thp) override;

  ClassifiedSizes Classify(PolicyContext& ctx) override;

  uint64_t hot_set_bytes() const { return hot_bytes_; }
  // Fast-tier bytes consumed by small allocations (paper Table 3).
  uint64_t over_allocated_bytes() const { return over_allocated_bytes_; }

  // Checkpointing. Init() (sampler fault re-attach) must run before a load;
  // per-page sample counts live in the page policy words listed with the
  // memory system.
  void VisitState(StateCodec& c) override {
    c.Section(0x48454d4du);  // "HEMM"
    c.Record("sampler", sampler_);
    c.Record("promote_list", promote_list_);
    c.Field("hot_bytes", hot_bytes_);
    c.Field("over_allocated_bytes", over_allocated_bytes_);
    c.Field("next_migrate_ns", next_migrate_ns_);
    c.Field("last_spin_charge_ns", last_spin_charge_ns_);
    c.Field("demote_cursor", demote_cursor_);
    c.Field("exchange_cursor", exchange_cursor_);
  }

 private:
  void Cool(PolicyContext& ctx);

  Params params_;
  PebsSampler sampler_;
  PageList promote_list_;
  uint64_t hot_bytes_ = 0;  // maintained incrementally on threshold crossings
  uint64_t over_allocated_bytes_ = 0;
  uint64_t next_migrate_ns_ = 0;
  uint64_t last_spin_charge_ns_ = 0;
  PageIndex demote_cursor_ = 0;
  PageIndex exchange_cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_HEMEM_H_
