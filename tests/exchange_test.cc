// Tests for MemorySystem::ExchangePages — the direct two-page swap primitive
// (AutoTiering's exchange_pages) — and the exchange-aware policies built on
// it. Covers the exchange contract (atomic swap, two shootdowns, frame
// conservation), the differential guarantee (same final placement as
// migrate+evict when a free frame exists; succeeds where Migrate is denied
// under zero free fast frames), tenant quota/budget semantics (fast-tier
// neutrality bypasses steal-or-deny, ownership still gates cross-tenant
// swaps), and the engine-level determinism acceptance criterion (exchange-
// enabled sweeps byte-identical at 1 vs 4 threads, audit-clean).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/fault/fault.h"
#include "src/mem/memory_system.h"
#include "src/mem/tlb.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/sim/metrics.h"

namespace memtis {
namespace {

// Component-level audit sweep over a bare memory system + TLB, including the
// exchange-accounting invariant (injector-free: zero injected aborts must
// match zero counted aborts).
AuditReport AuditMem(MemorySystem& mem, const Tlb& tlb,
                     const FaultStats& faults = FaultStats{}) {
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(mem, out);
  CheckPageTableMapping(mem, out);
  CheckHugePageAccounting(mem, out);
  CheckIncrementalCounters(mem, out);
  CheckTlbCoherence(tlb, mem, out);
  CheckTenantConservation(mem, out);
  CheckExchangeAccounting(mem, faults, out);
  return report;
}

// Base-page region helper: one 2 MiB span of 512 base pages in `tier`.
Vaddr AllocBaseRegion(MemorySystem& mem, TierId tier) {
  AllocOptions opts;
  opts.preferred = tier;
  opts.use_thp = false;
  return mem.AllocateRegion(kHugePageSize, opts);
}

TEST(Exchange, SwapsPlacementInPlaceAndConservesFrames) {
  MemorySystem mem(MemoryConfig{.fast_frames = 1024, .capacity_frames = 2048});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  const Vaddr fast_base = AllocBaseRegion(mem, TierId::kFast);
  const Vaddr cap_base = AllocBaseRegion(mem, TierId::kCapacity);
  const PageIndex cold = mem.Lookup(VpnOf(fast_base));
  const PageIndex hot = mem.Lookup(VpnOf(cap_base));
  ASSERT_NE(cold, kInvalidPage);
  ASSERT_NE(hot, kInvalidPage);
  const FrameId hot_frame = mem.page(hot).frame();
  const FrameId cold_frame = mem.page(cold).frame();
  const uint64_t fast_used = mem.tier(TierId::kFast).used_frames();
  const uint64_t cap_used = mem.tier(TierId::kCapacity).used_frames();
  const uint64_t fast_mapped = mem.mapped_4k_in_tier(TierId::kFast);
  const uint64_t shootdowns = tlb.stats().shootdowns;

  ASSERT_TRUE(mem.ExchangePages(hot, cold));

  // The pages traded tiers and frames; no frame was allocated or freed.
  EXPECT_EQ(mem.page(hot).tier(), TierId::kFast);
  EXPECT_EQ(mem.page(cold).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.page(hot).frame(), cold_frame);
  EXPECT_EQ(mem.page(cold).frame(), hot_frame);
  EXPECT_EQ(mem.tier(TierId::kFast).used_frames(), fast_used);
  EXPECT_EQ(mem.tier(TierId::kCapacity).used_frames(), cap_used);
  EXPECT_EQ(mem.mapped_4k_in_tier(TierId::kFast), fast_mapped);
  // Both vpn spans were shot down — one IPI event per remapped side.
  EXPECT_EQ(tlb.stats().shootdowns, shootdowns + 2);
  EXPECT_EQ(mem.migration_stats().exchanges, 1u);
  EXPECT_EQ(mem.migration_stats().exchanged_huge, 0u);
  EXPECT_EQ(mem.migration_stats().exchanged_4k(), 2u);
  EXPECT_EQ(mem.migration_stats().failed_exchanges, 0u);
  // Exchanges are not migrations: the migrate counters never move.
  EXPECT_EQ(mem.migration_stats().promoted_4k(), 0u);
  EXPECT_EQ(mem.migration_stats().demoted_4k(), 0u);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(Exchange, SwapsHugePagesWholeSpan) {
  MemorySystem mem(MemoryConfig{.fast_frames = 1024, .capacity_frames = 2048});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  AllocOptions fast_opts;
  fast_opts.preferred = TierId::kFast;
  AllocOptions cap_opts;
  cap_opts.preferred = TierId::kCapacity;
  const Vaddr fast_base = mem.AllocateRegion(kHugePageSize, fast_opts);
  const Vaddr cap_base = mem.AllocateRegion(kHugePageSize, cap_opts);
  const PageIndex cold = mem.Lookup(VpnOf(fast_base));
  const PageIndex hot = mem.Lookup(VpnOf(cap_base));
  ASSERT_EQ(mem.page(hot).kind(), PageKind::kHuge);
  ASSERT_EQ(mem.page(cold).kind(), PageKind::kHuge);

  ASSERT_TRUE(mem.ExchangePages(hot, cold));
  EXPECT_EQ(mem.page(hot).tier(), TierId::kFast);
  EXPECT_EQ(mem.page(cold).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.migration_stats().exchanges, 1u);
  EXPECT_EQ(mem.migration_stats().exchanged_huge, 1u);
  EXPECT_EQ(mem.migration_stats().exchanged_4k(), 2 * kSubpagesPerHuge);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(Exchange, RejectsInvalidPairsWithoutSideEffects) {
  MemorySystem mem(MemoryConfig{.fast_frames = 2048, .capacity_frames = 4096});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  const Vaddr fast_base = AllocBaseRegion(mem, TierId::kFast);
  const Vaddr cap_base = AllocBaseRegion(mem, TierId::kCapacity);
  AllocOptions huge_cap;
  huge_cap.preferred = TierId::kCapacity;
  const Vaddr huge_base = mem.AllocateRegion(kHugePageSize, huge_cap);
  const PageIndex fast_page = mem.Lookup(VpnOf(fast_base));
  const PageIndex fast_page2 = mem.Lookup(VpnOf(fast_base) + 1);
  const PageIndex cap_page = mem.Lookup(VpnOf(cap_base));
  const PageIndex cap_page2 = mem.Lookup(VpnOf(cap_base) + 1);
  const PageIndex huge_page = mem.Lookup(VpnOf(huge_base));
  const uint64_t shootdowns = tlb.stats().shootdowns;

  EXPECT_FALSE(mem.ExchangePages(cap_page, cap_page));    // same page
  EXPECT_FALSE(mem.ExchangePages(huge_page, fast_page));  // kind mismatch
  EXPECT_FALSE(mem.ExchangePages(cap_page, cap_page2));   // cold not fast
  EXPECT_FALSE(mem.ExchangePages(fast_page, fast_page2)); // hot not capacity
  EXPECT_EQ(mem.migration_stats().failed_exchanges, 4u);
  EXPECT_EQ(mem.migration_stats().exchanges, 0u);
  // Nothing moved, nothing was shot down.
  EXPECT_EQ(mem.page(cap_page).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.page(fast_page).tier(), TierId::kFast);
  EXPECT_EQ(tlb.stats().shootdowns, shootdowns);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

// Differential: with a free fast frame available, one exchange and the
// classic migrate+evict pair must land every page on the same final tier.
TEST(Exchange, MatchesMigratePlusEvictPlacement) {
  const MemoryConfig config{.fast_frames = 1536, .capacity_frames = 4096};
  MemorySystem via_exchange(config);
  MemorySystem via_migrate(config);
  Tlb tlb_a;
  Tlb tlb_b;
  via_exchange.AttachTlb(&tlb_a);
  via_migrate.AttachTlb(&tlb_b);
  // Identical layouts: same alloc sequence on identical configs.
  const Vaddr fast_base = AllocBaseRegion(via_exchange, TierId::kFast);
  const Vaddr cap_base = AllocBaseRegion(via_exchange, TierId::kCapacity);
  ASSERT_EQ(AllocBaseRegion(via_migrate, TierId::kFast), fast_base);
  ASSERT_EQ(AllocBaseRegion(via_migrate, TierId::kCapacity), cap_base);
  const Vpn cold_vpn = VpnOf(fast_base) + 7;
  const Vpn hot_vpn = VpnOf(cap_base) + 3;

  ASSERT_TRUE(via_exchange.ExchangePages(via_exchange.Lookup(hot_vpn),
                                         via_exchange.Lookup(cold_vpn)));
  ASSERT_TRUE(via_migrate.Migrate(via_migrate.Lookup(cold_vpn), TierId::kCapacity));
  ASSERT_TRUE(via_migrate.Migrate(via_migrate.Lookup(hot_vpn), TierId::kFast));

  // Every vpn of both regions sits on the same tier in both systems (frames
  // may differ: the exchange swaps in place, migrate+evict reallocates).
  for (Vpn vpn = VpnOf(fast_base); vpn < VpnOf(fast_base) + kSubpagesPerHuge; ++vpn) {
    ASSERT_EQ(via_exchange.page(via_exchange.Lookup(vpn)).tier(),
              via_migrate.page(via_migrate.Lookup(vpn)).tier())
        << "vpn " << vpn;
  }
  for (Vpn vpn = VpnOf(cap_base); vpn < VpnOf(cap_base) + kSubpagesPerHuge; ++vpn) {
    ASSERT_EQ(via_exchange.page(via_exchange.Lookup(vpn)).tier(),
              via_migrate.page(via_migrate.Lookup(vpn)).tier())
        << "vpn " << vpn;
  }
  EXPECT_EQ(via_exchange.mapped_4k_in_tier(TierId::kFast),
            via_migrate.mapped_4k_in_tier(TierId::kFast));
  EXPECT_EQ(via_exchange.mapped_4k_in_tier(TierId::kCapacity),
            via_migrate.mapped_4k_in_tier(TierId::kCapacity));
  const AuditReport report_a = AuditMem(via_exchange, tlb_a);
  EXPECT_TRUE(report_a.ok()) << report_a.ToJson(2);
  const AuditReport report_b = AuditMem(via_migrate, tlb_b);
  EXPECT_TRUE(report_b.ok()) << report_b.ToJson(2);
}

// The reason the primitive exists: with zero free fast frames a promotion by
// Migrate is impossible (no frame to reserve), but an exchange goes through.
TEST(Exchange, SucceedsWhereMigrateIsDeniedUnderZeroFreeFrames) {
  MemorySystem mem(MemoryConfig{.fast_frames = 512, .capacity_frames = 2048});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  const Vaddr fast_base = AllocBaseRegion(mem, TierId::kFast);
  const Vaddr cap_base = AllocBaseRegion(mem, TierId::kCapacity);
  ASSERT_EQ(mem.tier(TierId::kFast).free_frames(), 0u);
  const PageIndex hot = mem.Lookup(VpnOf(cap_base));
  const PageIndex cold = mem.Lookup(VpnOf(fast_base));

  EXPECT_FALSE(mem.Migrate(hot, TierId::kFast));
  EXPECT_EQ(mem.migration_stats().failed_migrations, 1u);
  EXPECT_EQ(mem.page(hot).tier(), TierId::kCapacity);

  EXPECT_TRUE(mem.ExchangePages(hot, cold));
  EXPECT_EQ(mem.page(hot).tier(), TierId::kFast);
  EXPECT_EQ(mem.page(cold).tier(), TierId::kCapacity);
  EXPECT_EQ(mem.tier(TierId::kFast).free_frames(), 0u);
  EXPECT_EQ(mem.migration_stats().exchanges, 1u);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

// Tenant semantics: a same-tenant exchange is fast-tier-neutral and bypasses
// the steal-or-deny path entirely (it succeeds with the quota exactly full,
// and never self-demotes); a cross-tenant exchange grows the hot owner's
// fast usage and is denied — without stealing — when over quota.
TEST(Exchange, TenantQuotaNeutralityAndCrossTenantGate) {
  MemorySystem mem(MemoryConfig{.fast_frames = 1024, .capacity_frames = 4096});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  mem.SetCurrentTenant(1);
  const Vaddr t1_fast = AllocBaseRegion(mem, TierId::kFast);
  mem.SetCurrentTenant(2);
  const Vaddr t2_fast = AllocBaseRegion(mem, TierId::kFast);
  const Vaddr t2_cap = AllocBaseRegion(mem, TierId::kCapacity);
  ASSERT_EQ(mem.tier(TierId::kFast).free_frames(), 0u);
  // Tenant 2's quota is exactly its current usage: no growth allowed.
  mem.SetTenantFastQuota(2, mem.tenant_stats(2).fast_pages());

  // Same-tenant swap with the quota full: allowed (net fast change is zero).
  const PageIndex hot_same = mem.Lookup(VpnOf(t2_cap));
  const PageIndex cold_same = mem.Lookup(VpnOf(t2_fast));
  const uint64_t t2_fast_before = mem.tenant_mapped_4k(2, TierId::kFast);
  EXPECT_TRUE(mem.ExchangePages(hot_same, cold_same));
  EXPECT_EQ(mem.tenant_mapped_4k(2, TierId::kFast), t2_fast_before);
  EXPECT_EQ(mem.tenant_stats(2).quota_steals, 0u);
  EXPECT_EQ(mem.tenant_stats(2).quota_denied_promotions, 0u);

  // Cross-tenant swap would grow tenant 2 past its quota: denied, and —
  // unlike Migrate's steal-or-deny — no self-demotion is attempted.
  const PageIndex hot_cross = mem.Lookup(VpnOf(t2_cap) + 1);
  const PageIndex cold_cross = mem.Lookup(VpnOf(t1_fast));
  EXPECT_FALSE(mem.ExchangePages(hot_cross, cold_cross));
  EXPECT_EQ(mem.tenant_stats(2).quota_denied_promotions, 1u);
  EXPECT_EQ(mem.tenant_stats(2).quota_steals, 0u);
  EXPECT_EQ(mem.migration_stats().failed_exchanges, 1u);
  EXPECT_EQ(mem.page(hot_cross).tier(), TierId::kCapacity);

  // With headroom the cross-tenant swap goes through and both tenants'
  // per-tier counters move in lockstep (global counters are unchanged).
  mem.SetTenantFastQuota(2, mem.tenant_stats(2).fast_pages() + 1);
  const uint64_t t1_fast_before = mem.tenant_mapped_4k(1, TierId::kFast);
  EXPECT_TRUE(mem.ExchangePages(hot_cross, cold_cross));
  EXPECT_EQ(mem.tenant_mapped_4k(2, TierId::kFast), t2_fast_before + 1);
  EXPECT_EQ(mem.tenant_mapped_4k(1, TierId::kFast), t1_fast_before - 1);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(Exchange, DrawsTenantPromotionBudgetTokens) {
  MemorySystem mem(MemoryConfig{.fast_frames = 512, .capacity_frames = 2048});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  mem.SetCurrentTenant(1);
  const Vaddr fast_base = AllocBaseRegion(mem, TierId::kFast);
  const Vaddr cap_base = AllocBaseRegion(mem, TierId::kCapacity);
  // Two tokens, no refill: the hot side of each exchange draws one.
  mem.SetTenantPromotionBudget(1, /*rate_per_ms=*/0, /*burst_pages=*/2);

  const Vpn hot_vpn = VpnOf(cap_base);
  const Vpn cold_vpn = VpnOf(fast_base);
  EXPECT_TRUE(mem.ExchangePages(mem.Lookup(hot_vpn), mem.Lookup(cold_vpn)));
  EXPECT_TRUE(mem.ExchangePages(mem.Lookup(hot_vpn + 1), mem.Lookup(cold_vpn + 1)));
  // Tokens exhausted: the third exchange is denied and nothing moves.
  EXPECT_FALSE(mem.ExchangePages(mem.Lookup(hot_vpn + 2), mem.Lookup(cold_vpn + 2)));
  EXPECT_EQ(mem.tenant_stats(1).budget_denied_promotions, 1u);
  EXPECT_EQ(mem.migration_stats().exchanges, 2u);
  EXPECT_EQ(mem.migration_stats().failed_exchanges, 1u);
  EXPECT_EQ(mem.page(mem.Lookup(hot_vpn + 2)).tier(), TierId::kCapacity);
  const AuditReport report = AuditMem(mem, tlb);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

// Acceptance criterion: an exchange-enabled sweep (native AutoTiering plus
// the MEMTIS/HeMem opt-in variants) under fast-tier pressure is audit-clean
// and serializes byte-identically at 1 and 4 threads.
TEST(ExchangeEngine, SweepByteIdenticalAcrossThreadsAndAuditClean) {
  SweepSpec sweep;
  sweep.systems = {"autotiering", "memtis-exchange", "hemem-exchange"};
  sweep.benchmarks = {"btree"};
  sweep.fast_ratios = {1.0 / 9.0};  // heavy pressure: promotions find no room
  sweep.seeds = 1;
  sweep.accesses = 60'000;
  sweep.include_baseline = false;
  sweep.audit = true;

  ThreadPool serial(1);
  ThreadPool parallel(4);
  const SweepRun run1 = RunSweep(sweep, serial);
  const SweepRun run4 = RunSweep(sweep, parallel);
  SinkOptions options;
  options.indent = 0;
  const std::string json1 = SweepToJson(sweep, run1.jobs, run1.results, options);
  const std::string json4 = SweepToJson(sweep, run4.jobs, run4.results, options);
  EXPECT_EQ(json1, json4);

  uint64_t total_exchanges = 0;
  for (size_t i = 0; i < run1.results.size(); ++i) {
    EXPECT_TRUE(run1.results[i].audit_report.ok())
        << run1.jobs[i].system << ": "
        << run1.results[i].audit_report.ToJson(2);
    total_exchanges += run1.results[i].metrics.migration.exchanges;
    if (run1.jobs[i].system == "autotiering") {
      // Native exchange: the fault-path promoter swaps when the tier is full.
      EXPECT_GT(run1.results[i].metrics.migration.exchanges, 0u);
    }
  }
  EXPECT_GT(total_exchanges, 0u);
  // The counters ride through the sinks' schema (omitted only when zero).
  EXPECT_NE(json1.find("\"exchanges\":"), std::string::npos);
}

// Exchange-free documents omit the counters (schema compatibility with the
// committed goldens); any exchange activity writes them. Their round trip is
// in fuzz_test's Codec cases.
TEST(ExchangeMetrics, JsonOmittedWhenZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.ToJson(0).find("\"exchanges\""), std::string::npos);

  metrics.migration.exchanges = 41;
  metrics.migration.exchanged_huge = 3;
  metrics.migration.failed_exchanges = 5;
  metrics.migration.aborted_exchanges = 2;
  EXPECT_NE(metrics.ToJson(0).find("\"exchanges\":41"), std::string::npos);
}

}  // namespace
}  // namespace memtis
