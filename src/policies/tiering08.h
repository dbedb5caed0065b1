// Tiering-0.8 (Verma, kernel tiering tree) behavioural model.
//
// Per the paper's Table 1: hint-fault (recency) tracking for promotion and
// recency for demotion, with the hotness criterion adapted by promotion rate:
// the kernel throttles promotions so migration traffic stays near a target
// rate. Promotion happens in the fault handler (critical path); a
// kswapd-style daemon demotes not-recently-used pages to keep free fast-tier
// headroom, which new allocations may use (paper §6.2.6).

#ifndef MEMTIS_SIM_SRC_POLICIES_TIERING08_H_
#define MEMTIS_SIM_SRC_POLICIES_TIERING08_H_

#include "src/policies/policy_util.h"
#include "src/sim/policy.h"

namespace memtis {

class Tiering08Policy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 200'000;
    uint64_t scan_batch_pages = 64;
    double low_watermark = 0.02;
    double high_watermark = 0.05;
    // Promotion-rate control: target promoted 4 KiB pages per rate window.
    uint64_t rate_window_ns = 2'000'000;
    uint64_t target_promotions_per_window = 512;
  };

  Tiering08Policy() : Tiering08Policy(Params{}) {}
  explicit Tiering08Policy(Params params)
      : params_(params), arm_(kArmedBit, params.scan_batch_pages) {}

  std::string_view name() const override { return "tiering-0.8"; }

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

  void VisitState(StateCodec& c) override {
    c.Section(0x54493038u);  // "TI08"
    c.Record("arm", arm_);
    c.Field("next_scan_ns", next_scan_ns_);
    c.Field("window_start_ns", window_start_ns_);
    c.Field("window_promoted", window_promoted_);
    c.Field("admit_ratio", admit_ratio_);
    c.Field("demote_cursor", demote_cursor_);
  }

 private:
  static constexpr uint64_t kArmedBit = 1;
  static constexpr uint64_t kReferencedBit = 2;

  Params params_;
  HintFaultArm arm_;
  uint64_t next_scan_ns_ = 0;
  uint64_t window_start_ns_ = 0;
  uint64_t window_promoted_ = 0;
  // Adaptive admission: fraction of eligible faults actually promoted.
  double admit_ratio_ = 1.0;
  PageIndex demote_cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_TIERING08_H_
