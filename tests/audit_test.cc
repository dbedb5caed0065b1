// Unit tests for the audit layer (src/audit/): every invariant passes on
// healthy state, every invariant fires on a seeded fault injection, the
// engine-driven auditor stamps violations with the right virtual-time
// context, and the epoch recorder's ring buffer behaves.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/audit/audit_session.h"
#include "src/audit/epoch_recorder.h"
#include "src/common/json.h"
#include "src/memtis/memtis_policy.h"
#include "src/memtis/policy_registry.h"
#include "src/workloads/registry.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

// A small but real MEMTIS run whose post-run state the component checks audit.
// The fast tier holds 1/fast_share of the btree footprint at `scale`.
struct MemtisRun {
  std::unique_ptr<Workload> workload;
  MemtisConfig config;
  MemtisPolicy policy;
  Engine engine;

  explicit MemtisRun(uint64_t accesses = 200'000, EngineObserver* audit = nullptr,
                     double scale = 0.12, uint64_t fast_share = 3)
      : workload(MakeWorkload("btree", scale)),
        config(MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                            workload->footprint_bytes() / fast_share)),
        policy(config),
        engine(MachineFor(*workload, 1.0 / static_cast<double>(fast_share)), policy,
               [&] {
                 EngineOptions opts;
                 opts.max_accesses = accesses;
                 opts.audit = audit;
                 return opts;
               }()) {
    engine.Run(*workload);
  }
};

int ViolationsFor(const AuditReport& report, const std::string& invariant) {
  int n = 0;
  for (const AuditViolation& v : report.violations) {
    if (v.invariant == invariant) {
      ++n;
    }
  }
  return n;
}

TEST(AuditChecks, CleanRunPassesEveryInvariant) {
  MemtisRun run;
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(run.engine.mem(), out);
  CheckPageTableMapping(run.engine.mem(), out);
  CheckHugePageAccounting(run.engine.mem(), out);
  CheckTlbCoherence(run.engine.tlb(), run.engine.mem(), out);
  CheckMigrationLedger(run.engine.ctx().migration_budget, out);
  CheckMemtisSampleLedger(run.policy, out);
  CheckMemtisHistogramMass(run.policy, run.engine.mem(), out);
  CheckMemtisHistogramsFull(run.policy, run.engine.mem(), out);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
  EXPECT_GT(report.checks_run, 0u);
}

TEST(AuditChecks, FrameConservationCatchesLeakedFrame) {
  MemtisRun run;
  // Leak: allocate a frame directly from the buddy, bypassing the page table.
  // The capacity tier always has slack (MachineFor sizes it footprint * 1.5).
  ASSERT_TRUE(run.engine.mem()
                  .tier(TierId::kCapacity)
                  .allocator()
                  .Allocate(0)
                  .has_value());
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "frame-conservation"), 0) << report.ToJson(2);
}

TEST(AuditChecks, PageTableMappingCatchesCorruptedTranslation) {
  MemtisRun run;
  // Shift one live page's base_vpn: the page table no longer maps every 4k
  // slice of the page back to its index.
  bool corrupted = false;
  run.engine.mem().ForEachLivePage([&](PageIndex, PageInfo& page) {
    if (!corrupted) {
      page.base_vpn += 1;
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);
  AuditReport report;
  AuditCollector out(&report);
  CheckPageTableMapping(run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "page-table-mapping"), 0) << report.ToJson(2);
}

// Shifts one page's base_vpn by `shift` and returns the page-table-mapping
// report, next to the first unmapped j a per-vpn walk over Lookup() finds.
struct ShiftedSpan {
  std::string detail;
  uint64_t first_bad_j;
  std::string expected;
};
ShiftedSpan ShiftSpan(MemorySystem& mem, PageIndex index, Vpn shift) {
  PageInfo& page = mem.page(index);
  page.base_vpn += shift;
  uint64_t j = 0;
  while (j < page.size_pages() && mem.Lookup(page.base_vpn + j) == index) {
    ++j;
  }
  AuditReport report;
  AuditCollector out(&report);
  CheckPageTableMapping(mem, out);
  EXPECT_EQ(report.violations.size(), 1u) << report.ToJson(2);
  return ShiftedSpan{
      report.violations.empty() ? "" : report.violations[0].detail, j,
      "page " + std::to_string(index) + " (vpn " + std::to_string(page.base_vpn) +
          " + " + std::to_string(j) + ") not mapped back by the page table"};
}

TEST(AuditChecks, PageTableMappingNamesTheFirstUnmappedVpn) {
  // Four huge pages: the page table ends exactly at the last one's span.
  const MemoryConfig config{.fast_frames = 2048, .capacity_frames = 2048};
  struct Case {
    int page;   // which of the four huge pages to shift
    Vpn shift;  // vpns to move its base by
    uint64_t first_bad_j;
  };
  const Case cases[] = {
      {0, kSubpagesPerHuge, 0},           // lands on the next page's span
      {1, 256, 256},                      // mid-span
      {2, 1, 511},                        // only the last vpn is off
      {3, 100, 412},                      // runs past the page table's end
      {3, kSubpagesPerHuge, 0},           // starts at the page table's end
      {0, static_cast<Vpn>(1) << 40, 0},  // far past the end
  };
  for (const Case& c : cases) {
    MemorySystem mem(config);
    const Vaddr start = mem.AllocateRegion(4 * kHugePageSize, AllocOptions{});
    const PageIndex index = mem.Lookup(VpnOf(start) + c.page * kSubpagesPerHuge);
    ASSERT_EQ(mem.page(index).kind(), PageKind::kHuge);
    ASSERT_TRUE(mem.CheckConsistency());
    const ShiftedSpan got = ShiftSpan(mem, index, c.shift);
    EXPECT_EQ(got.first_bad_j, c.first_bad_j) << "page " << c.page;
    EXPECT_EQ(got.detail, got.expected) << "page " << c.page;
  }
  // A base page: its one-vpn span moved onto its neighbour.
  MemorySystem mem(config);
  AllocOptions base_pages;
  base_pages.use_thp = false;
  const Vaddr start = mem.AllocateRegion(kHugePageSize, base_pages);
  const ShiftedSpan got = ShiftSpan(mem, mem.Lookup(VpnOf(start) + 7), 1);
  EXPECT_EQ(got.first_bad_j, 0u);
  EXPECT_EQ(got.detail, got.expected);
}

TEST(AuditChecks, HugePageAccountingReportsStaleNonzeroSummary) {
  MemtisRun run;
  PageIndex corrupted = kInvalidPage;
  uint32_t summary = 0;
  run.engine.mem().ForEachLivePage([&](PageIndex index, PageInfo& page) {
    if (corrupted == kInvalidPage && page.kind() == PageKind::kHuge) {
      summary = ++page.huge->nonzero_subpages;
      corrupted = index;
    }
  });
  ASSERT_NE(corrupted, kInvalidPage);
  AuditReport report;
  AuditCollector out(&report);
  CheckHugePageAccounting(run.engine.mem(), out);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToJson(2);
  EXPECT_EQ(report.violations[0].detail,
            "huge page " + std::to_string(corrupted) + ": nonzero-subpage summary " +
                std::to_string(summary) + " != recount " +
                std::to_string(summary - 1) +
                " (the cooling scan-skip relies on this)");
}

TEST(AuditChecks, FrameConservationCatchesTierFlip) {
  MemtisRun run;
  // Corrupt one live page's tier field: its frames are now accounted against
  // the wrong tier's allocator, skewing the per-tier recount.
  bool corrupted = false;
  run.engine.mem().ForEachLivePage([&](PageIndex, PageInfo& page) {
    if (!corrupted) {
      page.tier() = OtherTier(page.tier());
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "frame-conservation"), 0) << report.ToJson(2);
}

TEST(AuditChecks, HugePageAccountingCatchesInflatedSubpageCounter) {
  MemtisRun run;
  bool corrupted = false;
  run.engine.mem().ForEachLivePage([&](PageIndex, PageInfo& page) {
    if (!corrupted && page.kind() == PageKind::kHuge) {
      page.huge->subpage_count[0] += 1'000'000;  // sum now exceeds C_i
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);
  AuditReport report;
  AuditCollector out(&report);
  CheckHugePageAccounting(run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "huge-page-accounting"), 0)
      << report.ToJson(2);
}

TEST(AuditChecks, TlbCoherenceCatchesStaleEntry) {
  MemtisRun run;
  // Fill a TLB entry for a vpn that is not mapped (far past every region).
  run.engine.tlb().Access(static_cast<Vpn>(1) << 40, PageKind::kBase);
  AuditReport report;
  AuditCollector out(&report);
  CheckTlbCoherence(run.engine.tlb(), run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "tlb-coherence"), 0) << report.ToJson(2);
}

TEST(AuditChecks, MigrationLedgerCatchesSkewedBalance) {
  MigrationBudget budget(/*pages_per_ms=*/100, /*burst_pages=*/500);
  ASSERT_TRUE(budget.Consume(0, 200));
  {
    AuditReport report;
    AuditCollector out(&report);
    CheckMigrationLedger(budget, out);
    ASSERT_TRUE(report.ok()) << report.ToJson(2);
  }
  budget.TestOnlyAdjustTokens(7);  // balance no longer matches the ledger
  AuditReport report;
  AuditCollector out(&report);
  CheckMigrationLedger(budget, out);
  EXPECT_GT(ViolationsFor(report, "migration-budget-ledger"), 0)
      << report.ToJson(2);
}

TEST(AuditChecks, MigrationLedgerCatchesBalanceAboveBurst) {
  MigrationBudget budget(/*pages_per_ms=*/100, /*burst_pages=*/500);
  budget.TestOnlyAdjustTokens(50);  // 550 > burst
  AuditReport report;
  AuditCollector out(&report);
  CheckMigrationLedger(budget, out);
  EXPECT_GT(ViolationsFor(report, "migration-budget-ledger"), 0);
}

TEST(AuditChecks, SampleLedgerCatchesPhantomSample) {
  MemtisRun run;
  run.policy.TestOnlyMutableSampler().TestOnlyRecordPhantomSample(
      SampleType::kLlcLoadMiss);
  AuditReport report;
  AuditCollector out(&report);
  CheckMemtisSampleLedger(run.policy, out);
  EXPECT_GT(ViolationsFor(report, "memtis-sample-ledger"), 0)
      << report.ToJson(2);
}

TEST(AuditChecks, HistogramMassCatchesUntrackedPage) {
  MemtisRun run;
  // Allocate directly on the memory system: the policy never sees the pages,
  // so histogram mass falls behind the mapped-page count.
  run.engine.mem().AllocateRegion(kHugePageSize, AllocOptions{});
  AuditReport report;
  AuditCollector out(&report);
  CheckMemtisHistogramMass(run.policy, run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "memtis-histogram-mass"), 0)
      << report.ToJson(2);
}

TEST(AuditChecks, HistogramFullCatchesCorruptedCounter) {
  MemtisRun run;
  bool corrupted = false;
  run.engine.mem().ForEachLivePage([&](PageIndex, PageInfo& page) {
    // Push one page's counter several bins up behind the policy's back.
    if (!corrupted && page.histogram_bin != 0xff) {
      page.access_count() += 1'000'000;
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);
  AuditReport report;
  AuditCollector out(&report);
  CheckMemtisHistogramsFull(run.policy, run.engine.mem(), out);
  EXPECT_GT(ViolationsFor(report, "memtis-histogram-full"), 0)
      << report.ToJson(2);
}

// --- Engine-driven auditor ----------------------------------------------------

TEST(InvariantAuditor, CleanRunAuditsEveryTickWithZeroViolations) {
  InvariantAuditor auditor;
  MemtisRun run(200'000, &auditor);
  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
  EXPECT_GT(report.ticks_audited, 0u);
  EXPECT_GT(report.checks_run, report.ticks_audited);
  EXPECT_GT(auditor.ticks_seen(), 0u);
}

TEST(InvariantAuditor, ViolationCarriesVirtualTimeContext) {
  InvariantAuditor auditor;
  MemtisRun run(100'000, &auditor);
  ASSERT_TRUE(auditor.report().ok());
  // Inject a fault after the clean run, then audit once more.
  run.policy.TestOnlyMutableSampler().TestOnlyRecordPhantomSample(
      SampleType::kStore);
  auditor.AuditNow(run.engine, /*include_expensive=*/true);
  const AuditReport& report = auditor.report();
  ASSERT_FALSE(report.ok());
  ASSERT_GE(report.violations.size(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.invariant, "memtis-sample-ledger");
  EXPECT_EQ(v.t_ns, run.engine.now_ns());
  EXPECT_EQ(v.tick, auditor.ticks_seen());
  EXPECT_NE(v.detail.find("sample"), std::string::npos);
}

TEST(InvariantAuditor, CustomCheckRunsAndViolationCapHolds) {
  InvariantAuditor::Options options;
  options.max_recorded_violations = 3;
  InvariantAuditor auditor(options);
  int calls = 0;
  auditor.RegisterCheck("always-fails", /*expensive=*/false,
                        [&calls](Engine&, AuditCollector& out) {
                          ++calls;
                          out.BeginCheck();
                          out.Fail("always-fails", "fault injection");
                        });
  MemtisRun run(120'000, &auditor);
  const AuditReport& report = auditor.report();
  EXPECT_GT(calls, 3);
  EXPECT_EQ(report.violations.size(), 3u);  // capped
  EXPECT_EQ(report.violations_total, static_cast<uint64_t>(calls));
  EXPECT_GT(ViolationsFor(report, "always-fails"), 0);
}

TEST(InvariantAuditor, RunEndOnlyModeStillAudits) {
  InvariantAuditor::Options options;
  options.every_tick = false;
  InvariantAuditor auditor(options);
  MemtisRun run(60'000, &auditor);
  EXPECT_EQ(auditor.report().ticks_audited, 0u);
  EXPECT_GT(auditor.report().checks_run, 0u);  // the run-end audit
  EXPECT_TRUE(auditor.report().ok());
}

// --- Pinned reports -------------------------------------------------------------
//
// One AuditNow over a seeded corruption, compared as the whole report document:
// which invariants fire, in which order, with which text, and how many checks
// ran. The literals were captured before the page-slot checks shared one
// census, so any drift in what the fused checks report fails here.

// The first live page (in slot order) that satisfies `pred`.
template <typename Pred>
PageIndex FirstLivePage(MemorySystem& mem, Pred pred) {
  PageIndex found = kInvalidPage;
  mem.ForEachLivePage([&](PageIndex index, PageInfo& page) {
    if (found == kInvalidPage && pred(page)) {
      found = index;
    }
  });
  EXPECT_NE(found, kInvalidPage);
  return found;
}

PageIndex FirstHugePage(MemorySystem& mem) {
  return FirstLivePage(mem, [](const PageInfo& p) { return p.kind() == PageKind::kHuge; });
}

PageIndex FirstBasePage(MemorySystem& mem) {
  return FirstLivePage(mem, [](const PageInfo& p) { return p.kind() == PageKind::kBase; });
}

// A run long enough for MEMTIS to have split most huge pages: ~3.7k live
// pages, two of them still huge.
struct SplitRun : MemtisRun {
  SplitRun() : MemtisRun(1'000'000, nullptr, 0.25, 9) {}
};

// Runs every registered check (expensive ones included) once and returns the
// report document.
std::string AuditOnce(MemtisRun& run) {
  InvariantAuditor auditor;
  auditor.AuditNow(run.engine, /*include_expensive=*/true);
  return auditor.report().ToJson();
}

TEST(PinnedReport, CleanState) {
  SplitRun run;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":true,"ticks_audited":0,"checks_run":17,"violations_total":0,"violations":[]})j");
}

TEST(PinnedReport, StaleNonzeroSubpageSummary) {
  SplitRun run;
  ++run.engine.mem().page(FirstHugePage(run.engine.mem())).huge->nonzero_subpages;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":1,"violations":[{"invariant":"huge-page-accounting","detail":"huge page 1: nonzero-subpage summary 49 != recount 48 (the cooling scan-skip relies on this)","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, InflatedSubpageCounter) {
  SplitRun run;
  run.engine.mem().page(FirstHugePage(run.engine.mem())).huge->subpage_count[0] +=
      1'000'000;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":3,"violations":[{"invariant":"huge-page-accounting","detail":"huge page 1: subpage counters sum 1000280 > page counter 303","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"huge-page-accounting","detail":"huge page 1: nonzero-subpage summary 48 != recount 49 (the cooling scan-skip relies on this)","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"memtis-histogram-full","detail":"base histogram bin 0: tracked 3654 units, recomputed 3653","t_ns":191954192,"tick":0}]})j");
}

// Counters whose sum needs more than 32 bits: the recount must stay exact.
TEST(PinnedReport, SubpageCountersPastThirtyTwoBits) {
  SplitRun run;
  HugePageMeta& meta = *run.engine.mem().page(FirstHugePage(run.engine.mem())).huge;
  meta.SetSubpageCount(0, UINT32_MAX);
  meta.SetSubpageCount(1, 0x89abcdef);
  meta.SetSubpageCount(2, UINT32_MAX);
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":2,"violations":[{"invariant":"huge-page-accounting","detail":"huge page 1: subpage counters sum 10899672837 > page counter 303","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"memtis-histogram-full","detail":"base histogram bin 0: tracked 3654 units, recomputed 3651","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, LeakedBuddyFrame) {
  SplitRun run;
  ASSERT_TRUE(
      run.engine.mem().tier(TierId::kCapacity).allocator().Allocate(0).has_value());
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":2,"violations":[{"invariant":"frame-conservation","detail":"capacity tier: 3263 mapped 4k pages + 0 pinned frames != 3264 used frames","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"page-table-mapping","detail":"mapped 4696 + pinned 0 != used frames 4697","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, StrayFreeHead) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  const PageInfo& page = mem.page(FirstBasePage(mem));
  // A mapped frame queued as free: the lists now overstate free_frames().
  mem.tier(page.tier()).allocator().TestOnlyPushFree(page.frame(), 0);
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":2,"violations":[{"invariant":"frame-conservation","detail":"capacity tier buddy allocator: free lists hold 12098 frames but free_frames() is 12097","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"page-table-mapping","detail":"capacity tier buddy allocator: free lists hold 12098 frames but free_frames() is 12097","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, TierFlip) {
  SplitRun run;
  PageInfo& page = run.engine.mem().page(FirstHugePage(run.engine.mem()));
  page.tier() = OtherTier(page.tier());
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":7,"violations":[{"invariant":"frame-conservation","detail":"fast tier: 921 mapped 4k pages + 0 pinned frames != 1433 used frames","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"frame-conservation","detail":"capacity tier: 3775 mapped 4k pages + 0 pinned frames != 3263 used frames","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"page-table-mapping","detail":"recounted mapped 4k in tier 0 921 != tracked 1433","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"incremental-counters","detail":"fast tier mapped-4k counter 1433 != recount 921","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"incremental-counters","detail":"capacity tier mapped-4k counter 3263 != recount 3775","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 0 tier 0 counter 1433 != recount 921","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 0 tier 1 counter 3263 != recount 3775","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, ShiftedBaseVpn) {
  SplitRun run;
  run.engine.mem().page(FirstBasePage(run.engine.mem())).base_vpn += 1;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":1,"violations":[{"invariant":"page-table-mapping","detail":"page 0 (vpn 1 + 0) not mapped back by the page table","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, StaleTlbEntry) {
  SplitRun run;
  run.engine.tlb().Access(static_cast<Vpn>(1) << 40, PageKind::kBase);
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":2,"violations":[{"invariant":"tlb-coherence","detail":"stale base entry for unmapped vpn 1099511627776","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tlb-access-ledger","detail":"961752 hits + 38425 misses != 1000176 accesses","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, PageMovedToAnotherTenant) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  mem.SetTenantFastQuota(1, UINT64_MAX);  // registers tenant 1, no quota
  mem.page(FirstHugePage(mem)).tenant = 1;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":3,"violations":[{"invariant":"page-table-mapping","detail":"tenant 0 recounted mapped 4k in tier 0 921 != tracked 1433","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 0 tier 0 counter 1433 != recount 921","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 1 tier 0 counter 0 != recount 512","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, PageOwnedByUnregisteredTenant) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  mem.page(FirstBasePage(mem)).tenant = 7;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":2,"violations":[{"invariant":"page-table-mapping","detail":"page 0 owned by unregistered tenant 7","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"page 0 owned by unregistered tenant 7","t_ns":191954192,"tick":0}]})j");
}

TEST(PinnedReport, TwoCorruptionsKeepCrossCheckOrder) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  PageInfo& base = mem.page(FirstBasePage(mem));
  base.tier() = OtherTier(base.tier());
  ++mem.page(FirstHugePage(mem)).huge->nonzero_subpages;
  EXPECT_EQ(AuditOnce(run),
            R"j({"ok":false,"ticks_audited":0,"checks_run":17,"violations_total":8,"violations":[{"invariant":"frame-conservation","detail":"fast tier: 1434 mapped 4k pages + 0 pinned frames != 1433 used frames","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"frame-conservation","detail":"capacity tier: 3262 mapped 4k pages + 0 pinned frames != 3263 used frames","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"page-table-mapping","detail":"recounted mapped 4k in tier 0 1434 != tracked 1433","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"huge-page-accounting","detail":"huge page 1: nonzero-subpage summary 49 != recount 48 (the cooling scan-skip relies on this)","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"incremental-counters","detail":"fast tier mapped-4k counter 1433 != recount 1434","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"incremental-counters","detail":"capacity tier mapped-4k counter 3263 != recount 3262","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 0 tier 0 counter 1433 != recount 1434","t_ns":191954192,"tick":0},)j"
            R"j({"invariant":"tenant-conservation","detail":"tenant 0 tier 1 counter 3263 != recount 3262","t_ns":191954192,"tick":0}]})j");
}

// A huge page that lost its HugePageMeta is reported, not dereferenced: the
// census counts no written subpages for it. (The expensive histogram
// recompute reads subpage counters, so it stays out of this audit.)
TEST(InvariantAuditor, HugePageWithoutMetaIsReportedNotDereferenced) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  const PageIndex index = FirstHugePage(mem);
  const uint64_t written = CountSubpages(mem.page(index).huge->written);
  ASSERT_GT(written, 0u);
  mem.page(index).huge.reset();
  InvariantAuditor auditor;
  auditor.AuditNow(run.engine, /*include_expensive=*/false);
  const std::string page = std::to_string(index);
  std::vector<std::pair<std::string, std::string>> got;
  for (const AuditViolation& v : auditor.report().violations) {
    got.emplace_back(v.invariant, v.detail);
  }
  const uint64_t tracked = mem.written_subpages();
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"page-table-mapping", "huge page " + page + " has no HugePageMeta"},
      {"huge-page-accounting", "huge page " + page + " has no subpage metadata"},
      {"incremental-counters", "written-subpage counter " + std::to_string(tracked) +
                                   " != recount " + std::to_string(tracked - written)},
      {"incremental-counters", "bloat_pages() " + std::to_string(mem.bloat_pages()) +
                                   " != recount " +
                                   std::to_string(mem.bloat_pages() + written)},
  };
  EXPECT_EQ(got, expected) << auditor.report().ToJson(2);
}

// Hot arrays shorter than the page slots are reported; the census walks no
// slot past their end.
TEST(AuditChecks, ShortHotArraysAreReportedNotIndexed) {
  MemorySystem mem(MemoryConfig{.fast_frames = 2048, .capacity_frames = 2048});
  AllocOptions base_pages;
  base_pages.use_thp = false;
  mem.AllocateRegion(kHugePageSize, base_pages);
  const PageIndex slots = mem.page_slots();
  mem.hot_arrays().Resize(slots - 1);
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(mem, out);
  CheckPageTableMapping(mem, out);
  CheckHugePageAccounting(mem, out);
  CheckIncrementalCounters(mem, out);
  CheckTenantConservation(mem, out);
  ASSERT_EQ(ViolationsFor(report, "page-table-mapping"), 1) << report.ToJson(2);
  for (const AuditViolation& v : report.violations) {
    if (v.invariant == "page-table-mapping") {
      EXPECT_EQ(v.detail, "hot arrays sized " + std::to_string(slots - 1) +
                              " != page slots " + std::to_string(slots));
    }
  }
}

TEST(PinnedReportDeathTest, AbortModeStopsAtTheFirstViolation) {
  SplitRun run;
  MemorySystem& mem = run.engine.mem();
  PageInfo& base = mem.page(FirstBasePage(mem));
  base.tier() = OtherTier(base.tier());
  ++mem.page(FirstHugePage(mem)).huge->nonzero_subpages;
  InvariantAuditor::Options options;
  options.abort_on_violation = true;
  InvariantAuditor auditor(options);
  EXPECT_DEATH(auditor.AuditNow(run.engine, /*include_expensive=*/true),
               R"(AUDIT VIOLATION \[frame-conservation\] at t=191954192 ns tick=0: fast tier: 1434 mapped 4k pages \+ 0 pinned frames != 1433 used frames)");
}

// --- EpochRecorder ------------------------------------------------------------

TEST(EpochRecorder, RecordsChronologicalEpochsWithConsistentDeltas) {
  EpochRecorder::Options options;
  options.interval_ns = 500'000;
  EpochRecorder recorder(options);
  MemtisRun run(250'000, &recorder);
  const auto samples = recorder.samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
  uint64_t access_sum = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(samples[i].t_ns, samples[i - 1].t_ns);
      EXPECT_EQ(samples[i].epoch, samples[i - 1].epoch + 1);
    }
    EXPECT_TRUE(samples[i].memtis);
    access_sum += samples[i].accesses;
  }
  // Deltas over all epochs add back up to the run totals (final sample is
  // recorded at run end).
  EXPECT_EQ(access_sum, run.engine.metrics().accesses);
}

TEST(EpochRecorder, RingBufferWrapsKeepingNewestSamples) {
  EpochRecorder::Options options;
  options.interval_ns = 100'000;
  options.capacity = 4;
  EpochRecorder recorder(options);
  MemtisRun run(250'000, &recorder);
  ASSERT_GT(recorder.recorded_total(), 4u);
  const auto samples = recorder.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(recorder.dropped(), recorder.recorded_total() - 4);
  // The survivors are the newest four, in order.
  EXPECT_EQ(samples.back().epoch, recorder.recorded_total() - 1);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].epoch, samples[i - 1].epoch + 1);
  }
}

TEST(EpochRecorder, NonMemtisPolicyRecordsGenericFieldsOnly) {
  auto workload = MakeWorkload("btree", 0.1);
  auto policy = MakePolicy("autonuma", workload->footprint_bytes(),
                           workload->footprint_bytes() / 3);
  EpochRecorder recorder;
  EngineOptions opts;
  opts.max_accesses = 100'000;
  opts.audit = &recorder;
  Engine engine(MachineFor(*workload, 1.0 / 3.0), *policy, opts);
  engine.Run(*workload);
  const auto samples = recorder.samples();
  ASSERT_GE(samples.size(), 1u);
  for (const EpochSample& s : samples) {
    EXPECT_FALSE(s.memtis);
    EXPECT_EQ(s.hot_bin, -1);
  }
}

// --- AuditSession / env hook --------------------------------------------------

TEST(AuditSession, ComposesAuditorAndRecorderAndSerializes) {
  AuditSessionOptions options;
  options.epochs.interval_ns = 500'000;
  AuditSession session(options);
  MemtisRun run(150'000, &session);
  EXPECT_TRUE(session.report().ok());
  ASSERT_NE(session.recorder(), nullptr);
  EXPECT_GE(session.recorder()->recorded_total(), 1u);
  std::string json;
  JsonWriter w(&json, 0);
  session.WriteJson(w);
  EXPECT_NE(json.find("\"report\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\""), std::string::npos);
  EXPECT_NE(json.find("\"violations_total\":0"), std::string::npos);
}

TEST(AuditSession, EnvHookRespectsMemtisAuditVariable) {
  ASSERT_EQ(unsetenv("MEMTIS_AUDIT"), 0);
  EXPECT_FALSE(EnvAuditEnabled());
  EXPECT_EQ(MakeEnvAuditSession(), nullptr);
  ASSERT_EQ(setenv("MEMTIS_AUDIT", "0", 1), 0);
  EXPECT_FALSE(EnvAuditEnabled());
  ASSERT_EQ(setenv("MEMTIS_AUDIT", "1", 1), 0);
  EXPECT_TRUE(EnvAuditEnabled());
  auto session = MakeEnvAuditSession();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->recorder(), nullptr);  // env mode is invariants-only
  ASSERT_EQ(unsetenv("MEMTIS_AUDIT"), 0);
}

}  // namespace
}  // namespace memtis
