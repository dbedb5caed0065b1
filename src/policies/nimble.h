// Nimble Page Management (Yan et al., ASPLOS '19) behavioural model.
//
// Per the paper's Table 1: page-table scanning (reference bits), recency
// metric with a static threshold of one — any page referenced in the last
// scan interval is hot. Hot capacity pages are exchanged with
// not-recently-used fast pages in the background, which generates massive
// migration traffic when the referenced set exceeds the fast tier (paper
// §6.2.4: 56x more migration than MEMTIS on Silo).

#ifndef MEMTIS_SIM_SRC_POLICIES_NIMBLE_H_
#define MEMTIS_SIM_SRC_POLICIES_NIMBLE_H_

#include <vector>

#include "src/access/pt_scanner.h"
#include "src/policies/policy_util.h"
#include "src/sim/policy.h"

namespace memtis {

class NimblePolicy : public TieringPolicy {
 public:
  struct Params {
    uint64_t scan_period_ns = 500'000;  // full PT scan cadence (scaled)
    // Cap on exchanged 4 KiB pages per scan round, modelling the multi-
    // threaded exchange bandwidth.
    uint64_t exchange_budget_pages = 16384;
  };

  NimblePolicy() : NimblePolicy(Params{}) {}
  explicit NimblePolicy(Params params) : params_(params) {}

  std::string_view name() const override { return "nimble"; }

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

  ClassifiedSizes Classify(PolicyContext& ctx) override;

  void VisitState(StateCodec& c) override {
    c.Section(0x4e4d424cu);  // "NMBL"
    c.Record("scanner", scanner_);
    c.Field("next_scan_ns", next_scan_ns_);
    c.Field("last_hot_bytes", last_hot_bytes_);
    c.Field("last_cold_bytes", last_cold_bytes_);
  }

 private:
  Params params_;
  PtScanner scanner_;
  uint64_t next_scan_ns_ = 0;
  uint64_t last_hot_bytes_ = 0;
  uint64_t last_cold_bytes_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_NIMBLE_H_
