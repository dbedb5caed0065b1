// Unit tests for the audit layer (src/audit/): every invariant passes on
// healthy state, every invariant fires on a seeded fault injection, the
// engine-driven auditor stamps violations with the right virtual-time
// context, and the epoch recorder's ring buffer behaves.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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
struct MemtisRun {
  std::unique_ptr<Workload> workload;
  MemtisConfig config;
  MemtisPolicy policy;
  Engine engine;

  explicit MemtisRun(uint64_t accesses = 200'000, EngineObserver* audit = nullptr)
      : workload(MakeWorkload("btree", 0.12)),
        config(MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                            workload->footprint_bytes() / 3)),
        policy(config),
        engine(MachineFor(*workload, 1.0 / 3.0), policy,
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
