// AutoTiering (Kim et al., USENIX ATC '21) behavioural model.
//
// Per the paper's Table 1: hint-fault tracking, recency-based promotion with a
// static threshold of one (critical path), an N-bit access-history vector per
// page, and LFU demotion among fast-tier pages by a background thread. The
// background thread reserves free pages but uses them only for promotion, so
// once demotion has kicked in, new allocations land on the capacity tier
// (paper §6.2.6's bwaves observation).

#ifndef MEMTIS_SIM_SRC_POLICIES_AUTOTIERING_H_
#define MEMTIS_SIM_SRC_POLICIES_AUTOTIERING_H_

#include <bit>

#include "src/policies/policy_util.h"
#include "src/sim/policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class AutoTieringPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 200'000;
    uint64_t scan_batch_pages = 64;
    double low_watermark = 0.02;   // start demoting below this free fraction
    double high_watermark = 0.05;  // demote until this much is free
    int history_bits = 8;
    uint64_t rate_limit_pages = 512;  // fault-path promotion rate limit
    uint64_t rate_window_ns = 2'000'000;
    // Native direct page exchange (the paper's exchange_pages fast path):
    // when a fault-path promotion finds no free fast frame, swap the hot page
    // with a cold fast-tier victim in one operation instead of waiting for
    // the background thread to demote into a reserved frame.
    bool use_exchange = true;
  };

  AutoTieringPolicy() : AutoTieringPolicy(Params{}) {}
  explicit AutoTieringPolicy(Params params)
      : params_(params),
        arm_(kArmedBit, params.scan_batch_pages),
        limiter_(params.rate_limit_pages, params.rate_window_ns) {}

  std::string_view name() const override { return "autotiering"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override;

  // Batched replay: unarmed accesses do nothing, so AbsorbRun stays a no-op.
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)is_write;
    return arm_.RunAbsorbLimit(ctx);
  }

  void Tick(PolicyContext& ctx) override;

  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes, bool use_thp) override {
    (void)ctx;
    (void)bytes;
    // Reserved fast-tier pages are promotion-only once demotion has started.
    return AllocOptions{
        .preferred = demotion_started_ ? TierId::kCapacity : TierId::kFast,
        .allow_other_tier = true,
        .use_thp = use_thp};
  }

  void VisitState(StateCodec& c) override {
    c.Section(0x4154524eu);  // "ATRN"
    c.Record("arm", arm_);
    c.Record("limiter", limiter_);
    c.Field("next_scan_ns", next_scan_ns_);
    c.Field("scan_epoch", scan_epoch_);
    c.Field("demotion_started", demotion_started_);
    c.Field("demote_cursor", demote_cursor_);
    c.Field("exchange_cursor", exchange_cursor_);
  }

 private:
  static constexpr uint64_t kArmedBit = 1;

  // History vector layout in policy_word1: [period index (32b) | history (32b)].
  void TouchHistory(PageInfo& page) const;
  int HistoryScore(const PageInfo& page) const;

  Params params_;
  HintFaultArm arm_;
  MigrationRateLimiter limiter_;
  uint64_t next_scan_ns_ = 0;
  uint64_t scan_epoch_ = 0;
  bool demotion_started_ = false;
  PageIndex demote_cursor_ = 0;
  PageIndex exchange_cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_AUTOTIERING_H_
