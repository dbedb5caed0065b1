// AutoNUMA (Linux automatic NUMA balancing) behavioural model.
//
// Per the paper's Table 1: page-fault-based tracking (hint faults), recency
// metric with a static threshold of one (the most recently touched page is
// hot), promotion in the fault handler (critical path), and no demotion — so
// early allocations can pin the fast tier (paper §6.2.2 notes this helps it
// in XSBench 1:2 and hurts everywhere else).

#ifndef MEMTIS_SIM_SRC_POLICIES_AUTONUMA_H_
#define MEMTIS_SIM_SRC_POLICIES_AUTONUMA_H_

#include "src/policies/policy_util.h"
#include "src/sim/policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class AutoNumaPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 200'000;  // task_numa_work cadence (scaled)
    uint64_t scan_batch_pages = 64;     // pages armed per scan window
    // NUMA balancing migration rate limit (kernel default: 256 MB/s/node).
    uint64_t rate_limit_pages = 512;
    uint64_t rate_window_ns = 2'000'000;
  };

  AutoNumaPolicy() : AutoNumaPolicy(Params{}) {}
  explicit AutoNumaPolicy(Params params)
      : params_(params),
        arm_(kArmedBit, params.scan_batch_pages),
        limiter_(params.rate_limit_pages, params.rate_window_ns) {}

  std::string_view name() const override { return "autonuma"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    (void)access;
    if (!arm_.ConsumeFault(page)) {
      return;
    }
    ctx.ChargeApp(ctx.costs.hint_fault_ns);
    if (page.tier() == TierId::kCapacity &&
        limiter_.Allow(ctx.now_ns, page.size_pages())) {
      // Threshold = 1: promote on the first hint fault, in the fault handler.
      MigrateCritical(ctx, index, TierId::kFast);
    }
  }

  // Batched replay: unarmed accesses do nothing, so AbsorbRun stays a no-op.
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)is_write;
    return arm_.RunAbsorbLimit(ctx);
  }

  void Tick(PolicyContext& ctx) override {
    if (ctx.now_ns < next_scan_ns_) {
      return;
    }
    next_scan_ns_ = ctx.now_ns + params_.scan_period_ns;
    arm_.ArmBatch(ctx);
  }

  void VisitState(StateCodec& c) override {
    c.Section(0x414e554du);  // "ANUM"
    c.Record("arm", arm_);
    c.Record("limiter", limiter_);
    c.Field("next_scan_ns", next_scan_ns_);
  }

 private:
  static constexpr uint64_t kArmedBit = 1;

  Params params_;
  HintFaultArm arm_;
  MigrationRateLimiter limiter_;
  uint64_t next_scan_ns_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_AUTONUMA_H_
