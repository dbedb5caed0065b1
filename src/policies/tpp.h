// TPP — Transparent Page Placement for CXL memory (Maruf et al., ASPLOS '23).
//
// Per the paper's Table 1: hint-fault tracking on capacity-tier pages,
// recency+frequency promotion with a static threshold of two (a page must be
// in the active LRU — i.e. referenced twice — before its fault promotes it,
// in the fault handler), recency-based demotion by a kswapd-style reclaimer
// that maintains free fast-tier headroom so new allocations land on the fast
// tier. Coarse 2Q classification can mark more pages hot than the fast tier
// holds (paper §6.2.3).

#ifndef MEMTIS_SIM_SRC_POLICIES_TPP_H_
#define MEMTIS_SIM_SRC_POLICIES_TPP_H_

#include "src/policies/policy_util.h"
#include "src/sim/policy.h"

namespace memtis {

class TppPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 200'000;
    uint64_t scan_batch_pages = 64;
    double low_watermark = 0.03;   // demotion trigger
    double high_watermark = 0.06;  // demotion target (allocation headroom)
    // Faults decay: a fault counter older than this is reset (LRU aging).
    // Must span multiple hint-fault sweeps of the footprint, or the 2-fault
    // promotion threshold can never be met.
    uint64_t fault_ttl_ns = 50'000'000;
    uint64_t rate_limit_pages = 512;  // fault-path promotion rate limit
    uint64_t rate_window_ns = 2'000'000;
  };

  TppPolicy() : TppPolicy(Params{}) {}
  explicit TppPolicy(Params params)
      : params_(params),
        arm_(kArmedBit, params.scan_batch_pages),
        limiter_(params.rate_limit_pages, params.rate_window_ns) {}

  std::string_view name() const override { return "tpp"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override;

  // Batched replay: an unarmed access only sets the reference bit, which is
  // idempotent.
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)is_write;
    return arm_.RunAbsorbLimit(ctx);
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    (void)ctx;
    (void)index;
    (void)access;
    (void)n;
    page.policy_word0 |= kReferencedBit;
  }

  void Tick(PolicyContext& ctx) override;

  ClassifiedSizes Classify(PolicyContext& ctx) override;

  void VisitState(StateCodec& c) override {
    c.Section(0x54505050u);  // "TPPP"
    c.Record("arm", arm_);
    c.Record("limiter", limiter_);
    c.Field("next_scan_ns", next_scan_ns_);
    c.Field("demote_cursor", demote_cursor_);
  }

 private:
  static constexpr uint64_t kArmedBit = 1;
  static constexpr uint64_t kReferencedBit = 2;

  Params params_;
  HintFaultArm arm_;
  MigrationRateLimiter limiter_;
  uint64_t next_scan_ns_ = 0;
  PageIndex demote_cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_TPP_H_
