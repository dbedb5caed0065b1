// MULTI-CLOCK (Maruf et al., HPCA '22) behavioural model.
//
// Per the paper's Table 1: page-table scanning, recency+frequency metric with
// a static threshold of two (pages referenced in two consecutive scans are
// promoted), and clock-based demotion of unreferenced fast pages — all in the
// background.

#ifndef MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_
#define MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_

#include "src/access/pt_scanner.h"
#include "src/policies/policy_util.h"
#include "src/sim/policy.h"

namespace memtis {

class MultiClockPolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 500'000;
    double low_watermark = 0.02;
    double high_watermark = 0.05;
  };

  MultiClockPolicy() : MultiClockPolicy(Params{}) {}
  explicit MultiClockPolicy(Params params) : params_(params) {}

  std::string_view name() const override { return "multi-clock"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    (void)ctx;
    (void)page;
    (void)access;
    scanner_.MarkAccessed(index);
  }

  // Batched replay: marking a page referenced is idempotent.
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)ctx;
    (void)is_write;
    return kAbsorbAll;
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    (void)ctx;
    (void)page;
    (void)access;
    (void)n;
    scanner_.MarkAccessed(index);
  }

  void Tick(PolicyContext& ctx) override;

  void VisitState(StateCodec& c) override {
    c.Section(0x4d434c4bu);  // "MCLK"
    c.Record("scanner", scanner_);
    c.Field("next_scan_ns", next_scan_ns_);
  }

 private:
  Params params_;
  PtScanner scanner_;
  uint64_t next_scan_ns_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_MULTICLOCK_H_
