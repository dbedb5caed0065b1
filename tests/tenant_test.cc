// Tenant plane tests: plain co-location of default tenants, quota
// enforcement at the memory system, lifecycle churn with reclamation, budget
// arbitration, the single-tenant byte-identity contract, the --colocate spec
// grammar, and the per-tenant JSON block.

#include "src/tenant/tenant.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/audit/audit_session.h"
#include "src/memtis/policy_registry.h"
#include "src/sim/engine.h"
#include "src/tenant/colocate.h"
#include "src/workloads/registry.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

// Builds a manager over `specs`, runs it under `system` with an
// always-on collect-mode audit session, and fails the test on any invariant
// violation. Returns the metrics with per_tenant filled.
struct TenantRun {
  Metrics metrics;
  AuditReport audit;
  uint64_t tenant_count = 0;
};

TenantRun RunTenants(TenantManager& manager, const std::string& system,
                     double fast_ratio, uint64_t accesses,
                     const std::string& faults = "") {
  auto policy = MakePolicy(system, manager.footprint_bytes(),
                           static_cast<uint64_t>(static_cast<double>(
                                                     manager.footprint_bytes()) *
                                                 fast_ratio));
  EngineOptions opts;
  opts.max_accesses = accesses;
  if (!faults.empty()) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(faults, &opts.faults, &error)) << error;
  }
  AuditSessionOptions audit_opts;
  audit_opts.record_epochs = false;
  AuditSession audit(audit_opts);
  opts.audit = &audit;
  Engine engine(MachineFor(manager, fast_ratio), *policy, opts);
  TenantRun run;
  run.metrics = engine.Run(manager);
  manager.ExportPerTenant(engine.mem(), &run.metrics);
  run.audit = audit.report();
  run.tenant_count = engine.mem().tenant_count();
  EXPECT_TRUE(engine.mem().CheckConsistency());
  return run;
}

// --- Plain co-location: default tenants in one address space ---------------

TEST(TenantManager, FootprintSumsTenants) {
  TenantManager manager;
  manager.AddTenant(TenantSpec{}, MakeWorkload("silo", 0.1));
  manager.AddTenant(TenantSpec{}, MakeWorkload("pagerank", 0.1));
  EXPECT_EQ(manager.tenant_count(), 2u);
  EXPECT_EQ(manager.footprint_bytes(),
            MakeWorkload("silo", 0.1)->footprint_bytes() +
                MakeWorkload("pagerank", 0.1)->footprint_bytes());
}

TEST(TenantManager, RunsBothTenantsUnderMemtis) {
  TenantManager manager;
  manager.AddTenant(TenantSpec{}, MakeWorkload("silo", 0.1));
  manager.AddTenant(TenantSpec{}, MakeWorkload("pagerank", 0.1));
  auto policy = MakePolicy("memtis", manager.footprint_bytes(),
                           manager.footprint_bytes() / 6);
  EngineOptions opts;
  opts.max_accesses = 500'000;
  Engine engine(MachineFor(manager, 1.0 / 6.0), *policy, opts);
  const Metrics m = engine.Run(manager);
  EXPECT_GE(m.accesses, 500'000u);
  EXPECT_TRUE(engine.mem().CheckConsistency());
  // Both tenants' regions live side by side (footprint fully mapped).
  EXPECT_GE(engine.mem().mapped_4k_pages() * kPageSize,
            manager.footprint_bytes() * 9 / 10);
}

TEST(TenantManager, FinishesWhenAllTenantsFinish) {
  // PageRank terminates after its iterations; the manager must end then too
  // when it is the only tenant.
  TenantManager manager;
  manager.AddTenant(TenantSpec{}, MakeWorkload("pagerank", 0.05));
  auto policy = MakePolicy("all-fast", 0, 0);
  EngineOptions opts;
  opts.max_accesses = 1ull << 40;  // no budget cap: natural termination
  Engine engine(MachineFor(manager, 1.5), *policy, opts);
  const Metrics m = engine.Run(manager);
  EXPECT_GT(m.accesses, 0u);
  EXPECT_LT(m.accesses, 1ull << 32);
}

// --- Quota enforcement -------------------------------------------------------

TEST(TenantQuota, ZeroQuotaTenantStaysOutOfFast) {
  TenantManager manager;
  TenantSpec pinned;
  pinned.name = "pinned";
  pinned.quota_fraction = 0.0;
  manager.AddTenant(pinned, MakeWorkload("silo", 0.05));
  TenantSpec open;
  open.quota_fraction = -1.0;
  manager.AddTenant(open, MakeWorkload("btree", 0.05, 1000));

  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 400'000);
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  ASSERT_EQ(run.metrics.per_tenant.size(), 2u);
  const TenantMetrics& t0 = run.metrics.per_tenant[0];
  EXPECT_EQ(t0.quota_frames, 0u);
  // The zero-quota tenant was pushed off the fast tier: allocations were
  // denied the preferred tier and promotions were refused outright.
  EXPECT_GT(t0.quota_denied_allocs + t0.quota_denied_promotions, 0u);
  // Outside a borrow window (none here: quota was set before any mapping)
  // usage must respect the quota exactly.
  EXPECT_EQ(t0.fast_pages, 0u);
  EXPECT_GT(t0.accesses, 0u);
}

TEST(TenantQuota, QuotaHoldsUnderTierShrinkFaults) {
  TenantManager manager;
  TenantSpec a;
  a.quota_fraction = 0.5;
  manager.AddTenant(a, MakeWorkload("silo", 0.05));
  TenantSpec b;
  b.quota_fraction = 0.4;
  manager.AddTenant(b, MakeWorkload("btree", 0.05, 1000));

  // tier-shrink removes fast frames mid-run; the per-tenant conservation
  // check (usage <= max(quota, borrow)) must hold through every shrink.
  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 400'000,
                                   "tier-shrink=0.002,seed=11");
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  EXPECT_GT(run.metrics.faults.total_injected(), 0u);
}

TEST(TenantQuota, StealsReplaceDenialsForOwnColdPages) {
  // A single quota'd tenant under memtis: once its quota fills, further
  // promotions must either steal from its own coldest fast pages or be
  // denied — never exceed the cap.
  TenantManager manager;
  TenantSpec t;
  t.quota_fraction = 0.2;
  manager.AddTenant(t, MakeWorkload("silo", 0.05));
  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 600'000);
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  const TenantMetrics& tm = run.metrics.per_tenant[0];
  EXPECT_GT(tm.quota_frames, 0u);
  EXPECT_LE(tm.fast_pages, tm.quota_frames);
  EXPECT_GT(tm.quota_steals + tm.quota_denied_promotions + tm.quota_denied_allocs,
            0u);
}

// --- Lifecycle churn ---------------------------------------------------------

TEST(TenantChurn, DepartureReclaimsFrames) {
  TenantManager manager;
  TenantSpec stay;
  manager.AddTenant(stay, MakeWorkload("silo", 0.05));
  TenantSpec churn;
  churn.name = "churner";
  churn.max_accesses = 50'000;  // forced departure with reclamation
  manager.AddTenant(churn, MakeWorkload("btree", 0.05, 1000));

  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 500'000);
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  EXPECT_TRUE(manager.tenant_departed(1));
  const TenantMetrics& churned = run.metrics.per_tenant[1];
  EXPECT_GT(churned.depart_ns, 0u);
  EXPECT_GE(churned.accesses, 50'000u);
  // fast_pages snapshots occupancy at departure; the stayer keeps running.
  EXPECT_FALSE(manager.tenant_departed(0));
  EXPECT_GT(run.metrics.per_tenant[0].accesses, churned.accesses);
}

TEST(TenantChurn, MidRunArrivalAndTimedDeparture) {
  TenantManager manager;
  TenantSpec base;
  manager.AddTenant(base, MakeWorkload("silo", 0.05));
  TenantSpec late;
  late.name = "late";
  late.arrive_ns = 2'000'000;
  late.depart_ns = 50'000'000;
  manager.AddTenant(late, MakeWorkload("btree", 0.05, 1000));

  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 600'000);
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  const TenantMetrics& tm = run.metrics.per_tenant[1];
  EXPECT_GE(tm.arrive_ns, 2'000'000u);
  if (manager.tenant_departed(1)) {
    EXPECT_GE(tm.depart_ns, 50'000'000u);
  }
  EXPECT_GT(tm.accesses, 0u);
}

TEST(TenantChurn, DiurnalPhaseScalingShiftsLoad) {
  TenantManager manager;
  TenantSpec steady;
  manager.AddTenant(steady, MakeWorkload("silo", 0.05));
  TenantSpec diurnal;
  diurnal.phase_period_ns = 10'000'000;
  diurnal.phase_low = 0.1;  // near-idle half the time
  manager.AddTenant(diurnal, MakeWorkload("silo", 0.05, 1000));

  const TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 500'000);
  EXPECT_EQ(run.audit.violations_total, 0u) << run.audit.ToJson(2);
  // The modulated tenant must fall measurably behind the steady one.
  EXPECT_LT(run.metrics.per_tenant[1].accesses * 3,
            run.metrics.per_tenant[0].accesses * 2);
}

// --- Determinism and the byte-identity contract ------------------------------

TEST(TenantDeterminism, SingleTenantMatchesLegacyRunByteForByte) {
  auto run_direct = [] {
    auto workload = MakeWorkload("silo", 0.05);
    auto policy = MakePolicy("memtis", workload->footprint_bytes(),
                             workload->footprint_bytes() / 3);
    EngineOptions opts;
    opts.max_accesses = 300'000;
    Engine engine(MachineFor(*workload, 1.0 / 3.0), *policy, opts);
    return engine.Run(*workload).ToJson(2);
  };
  auto run_tenant_plane = [] {
    TenantManager manager;
    manager.AddTenant(TenantSpec{}, MakeWorkload("silo", 0.05));
    auto policy = MakePolicy("memtis", manager.footprint_bytes(),
                             manager.footprint_bytes() / 3);
    EngineOptions opts;
    opts.max_accesses = 300'000;
    Engine engine(MachineFor(manager, 1.0 / 3.0), *policy, opts);
    // No ExportPerTenant: the wire document must match the legacy one.
    return engine.Run(manager).ToJson(2);
  };
  EXPECT_EQ(run_direct(), run_tenant_plane());
}

TEST(TenantDeterminism, MixedLengthTenantsReplayIdentically) {
  auto run_once = [] {
    TenantManager manager;
    TenantSpec churn;
    churn.max_accesses = 40'000;
    manager.AddTenant(churn, MakeWorkload("btree", 0.05));
    TenantSpec late;
    late.arrive_ns = 3'000'000;
    manager.AddTenant(late, MakeWorkload("silo", 0.05, 1000));
    manager.AddTenant(TenantSpec{}, MakeWorkload("pagerank", 0.05, 2000));
    TenantRun run = RunTenants(manager, "memtis", 1.0 / 3.0, 400'000);
    EXPECT_EQ(run.audit.violations_total, 0u);
    return run.metrics.ToJson(2);
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Budget arbitration ------------------------------------------------------

TEST(TenantBudget, WeightedSharesArmPerTenantBuckets) {
  TenantManager manager;
  TenantSpec heavy;
  heavy.weight = 3.0;
  manager.AddTenant(heavy, MakeWorkload("silo", 0.05));
  TenantSpec light;
  light.weight = 1.0;
  manager.AddTenant(light, MakeWorkload("silo", 0.05, 1000));

  auto policy = MakePolicy("memtis", manager.footprint_bytes(),
                           manager.footprint_bytes() / 3);
  EngineOptions opts;
  opts.max_accesses = 300'000;
  Engine engine(MachineFor(manager, 1.0 / 3.0), *policy, opts);
  engine.Run(manager);
  const MemorySystem& mem = engine.mem();
  ASSERT_GE(mem.tenant_count(), 2u);
  const TenantBudget& b0 = mem.tenant_stats(0).budget;
  const TenantBudget& b1 = mem.tenant_stats(1).budget;
  ASSERT_TRUE(b0.active);
  ASSERT_TRUE(b1.active);
  // 3:1 weights -> 3:1 refill rates (integer-truncated from the machine rate).
  EXPECT_GT(b0.rate_per_ms, b1.rate_per_ms);
  EXPECT_EQ(b0.rate_per_ms, b1.rate_per_ms * 3);
  EXPECT_TRUE(engine.mem().CheckConsistency());
}

// --- Colocate spec grammar ---------------------------------------------------

TEST(ColocateSpecTest, ParsesFullGrammar) {
  ColocateSpec spec;
  std::string error;
  ASSERT_TRUE(ColocateSpec::Parse(
      "silo,name=kv,quota=0.5,weight=2,arrive=1000,depart=2000,accesses=500,"
      "phase-period=100,phase-low=0.5,scale=0.1;pagerank",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.tenants.size(), 2u);
  const ColocateTenant& t = spec.tenants[0];
  EXPECT_EQ(t.workload, "silo");
  EXPECT_EQ(t.tenant.name, "kv");
  EXPECT_DOUBLE_EQ(t.tenant.quota_fraction, 0.5);
  EXPECT_DOUBLE_EQ(t.tenant.weight, 2.0);
  EXPECT_EQ(t.tenant.arrive_ns, 1000u);
  EXPECT_EQ(t.tenant.depart_ns, 2000u);
  EXPECT_EQ(t.tenant.max_accesses, 500u);
  EXPECT_EQ(t.tenant.phase_period_ns, 100u);
  EXPECT_DOUBLE_EQ(t.tenant.phase_low, 0.5);
  EXPECT_DOUBLE_EQ(t.scale, 0.1);
  EXPECT_EQ(spec.tenants[1].workload, "pagerank");
  EXPECT_LT(spec.tenants[1].tenant.quota_fraction, 0.0);

  // Canonical form re-parses to the same spec.
  ColocateSpec again;
  ASSERT_TRUE(ColocateSpec::Parse(spec.Canonical(), &again, &error)) << error;
  EXPECT_EQ(again.Canonical(), spec.Canonical());
}

TEST(ColocateSpecTest, RejectsMalformedSpecs) {
  ColocateSpec spec;
  std::string error;
  EXPECT_FALSE(ColocateSpec::Parse("", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("not-a-workload", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("silo,quota=1.5", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("silo,weight=-1", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("silo,phase-low=1.0", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("silo,bogus=1", &spec, &error));
  EXPECT_FALSE(ColocateSpec::Parse("silo,scale", &spec, &error));
}

// --- JSON --------------------------------------------------------------------
// (The per-tenant block's round trip is in fuzz_test's Codec cases.)

TEST(TenantMetricsJson, LegacyMetricsOmitPerTenant) {
  Metrics m;
  m.accesses = 7;
  EXPECT_EQ(m.ToJson(0).find("per_tenant"), std::string::npos);
}

}  // namespace
}  // namespace memtis
