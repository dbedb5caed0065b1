// Differential pins for the raw-speed access engine (batched replay + SoA
// hot metadata + sharded execution). The contract under test (see DESIGN.md,
// "Batched replay, SoA metadata, and sharding: the determinism contract"):
//
//  - Batched replay is an encoding, not a semantic: a workload issuing runs
//    through App::ReadRun/WriteRun produces byte-identical metrics and audit
//    documents to the same address stream issued access-by-access, for every
//    registered policy, fault-free or under the dense storm preset.
//  - ShardedEngine(1 shard) is byte-identical to a plain Engine.
//  - ShardedEngine(N shards) is byte-identical for any worker thread count.
//
// The whole file runs under MEMTIS_AUDIT=1 in scripts/check.sh's second pass
// (every engine here installs the env audit hook via MakeEnvAuditSession), so
// the identities are also pinned with the abort-on-violation auditor wired in.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit_session.h"
#include "src/common/json.h"
#include "src/fault/fault.h"
#include "src/memtis/policy_registry.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/workloads/stream.h"
#include "src/workloads/workload_common.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

constexpr uint64_t kFootprint = 64ull << 20;
constexpr uint64_t kAccesses = 60'000;

StreamWorkload::Params StreamParams(bool use_runs) {
  StreamWorkload::Params p;
  p.footprint_bytes = kFootprint;
  p.use_runs = use_runs;
  return p;
}

struct ReplayOutput {
  std::string metrics_json;
  std::string audit_json;   // report + epoch samples
  uint64_t violations = 0;
  uint64_t faults_injected = 0;
};

// Runs the stream workload under the named policy and serializes everything
// an identity check cares about: the metrics document and the audit document
// (violation report + epoch telemetry recorded at a fixed virtual cadence).
ReplayOutput RunStream(const std::string& policy_name, bool use_runs,
                       const std::string& fault_spec) {
  StreamWorkload workload(StreamParams(use_runs));
  auto policy = MakePolicy(policy_name, workload.footprint_bytes(),
                           workload.footprint_bytes() / 3);
  EngineOptions opts;
  opts.max_accesses = kAccesses;
  if (!fault_spec.empty()) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(fault_spec, &opts.faults, &error)) << error;
  }
  AuditSessionOptions audit_opts;
  audit_opts.record_epochs = true;
  audit_opts.epochs.interval_ns = 500'000;
  AuditSession audit(audit_opts);
  opts.audit = &audit;
  Engine engine(MachineFor(workload, 1.0 / 3.0), *policy, opts);

  ReplayOutput out;
  out.metrics_json = engine.Run(workload).ToJson(2);
  out.faults_injected = engine.metrics().faults.total_injected();
  out.violations = audit.report().violations_total;
  std::string audit_bytes;
  JsonWriter w(&audit_bytes, 2);
  w.BeginObject();
  w.Key("report");
  audit.report().WriteJson(w);
  w.Key("epochs");
  w.BeginArray();
  for (const EpochSample& sample : audit.recorder()->samples()) {
    sample.WriteJson(w);
  }
  w.EndArray();
  w.EndObject();
  out.audit_json = audit_bytes;
  return out;
}

class ReplayDifferentialTest : public ::testing::TestWithParam<std::string> {};

// The core tentpole pin: batched replay changes nothing observable. Metrics
// and audit documents (report + epochs) are compared as serialized bytes.
TEST_P(ReplayDifferentialTest, ScalarAndBatchedReplayAreByteIdentical) {
  const ReplayOutput batched = RunStream(GetParam(), /*use_runs=*/true, "");
  const ReplayOutput scalar = RunStream(GetParam(), /*use_runs=*/false, "");
  EXPECT_EQ(batched.metrics_json, scalar.metrics_json);
  EXPECT_EQ(batched.audit_json, scalar.audit_json);
  EXPECT_EQ(batched.violations, 0u);
}

// Faults force the batched path through its scalar-fallback seams (aborted
// migrations, starved budgets, shrunk tiers). The identity must survive the
// dense preset, and the plan must actually fire.
TEST_P(ReplayDifferentialTest, ScalarAndBatchedReplayMatchUnderFaultStorm) {
  const ReplayOutput batched = RunStream(GetParam(), /*use_runs=*/true, "storm");
  const ReplayOutput scalar = RunStream(GetParam(), /*use_runs=*/false, "storm");
  EXPECT_EQ(batched.metrics_json, scalar.metrics_json);
  EXPECT_EQ(batched.audit_json, scalar.audit_json);
  EXPECT_EQ(batched.violations, 0u);
  EXPECT_GT(batched.faults_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplayDifferentialTest,
                         ::testing::ValuesIn(KnownPolicyNames()));

// --- Absorb coverage --------------------------------------------------------

// Forwards every hook to the wrapped policy, ctx included, and counts the
// per-access calls that reach it.
class CountingPolicy : public TieringPolicy {
 public:
  explicit CountingPolicy(std::unique_ptr<TieringPolicy> inner)
      : inner_(std::move(inner)) {}

  uint64_t on_access_calls() const { return on_access_calls_; }

  std::string_view name() const override { return inner_->name(); }
  void Init(PolicyContext& ctx) override { inner_->Init(ctx); }
  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    ++on_access_calls_;
    inner_->OnAccess(ctx, index, page, access);
  }
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    return inner_->RunAbsorbLimit(ctx, is_write);
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    inner_->AbsorbRun(ctx, index, page, access, n);
  }
  void OnPageAllocated(PolicyContext& ctx, PageIndex index,
                       PageInfo& page) override {
    inner_->OnPageAllocated(ctx, index, page);
  }
  void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) override {
    inner_->OnPageFreed(ctx, index, page);
  }
  void Tick(PolicyContext& ctx) override { inner_->Tick(ctx); }
  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes,
                            bool use_thp) override {
    return inner_->PlacementFor(ctx, bytes, use_thp);
  }
  ClassifiedSizes Classify(PolicyContext& ctx) override {
    return inner_->Classify(ctx);
  }
  void VisitState(StateCodec& c) override { inner_->VisitState(c); }

 private:
  std::unique_ptr<TieringPolicy> inner_;
  uint64_t on_access_calls_ = 0;
};

// Under hint faults, page-table scans and static placement, a touch of an
// unarmed (or already referenced) page costs the tracker nothing, so a
// same-page run must reach OnAccess only where something happens: an armed
// page's fault, or the workload's scalar pokes. PEBS policies stay
// sample-bound; the differential above covers them.
TEST(ReplayDifferential, EveryPolicyAbsorbsSamePageRuns) {
  int checked = 0;
  for (const std::string& name : KnownPolicyNames()) {
    if (name.starts_with("memtis") || name.starts_with("hemem")) {
      continue;
    }
    ++checked;
    StreamWorkload workload(StreamParams(/*use_runs=*/true));
    CountingPolicy policy(MakePolicy(name, workload.footprint_bytes(),
                                     workload.footprint_bytes() / 3));
    EngineOptions opts;
    opts.max_accesses = kAccesses;
    Engine engine(MachineFor(workload, 1.0 / 3.0), policy, opts);
    const Metrics metrics = engine.Run(workload);
    ASSERT_GE(metrics.accesses, kAccesses);
    EXPECT_LE(policy.on_access_calls() * 100, metrics.accesses)
        << name << ": " << policy.on_access_calls() << " OnAccess calls for "
        << metrics.accesses << " accesses";
  }
  // Four hint-fault, two page-table-scan and three static entries.
  EXPECT_EQ(checked, 9);
}

// --- Fused delivery at the tick deadline ------------------------------------

// One event every `period` accesses, absorbable up to it: the smallest
// sampler-gated policy, with a period that never adapts. Each event charges
// the app, so a misplaced drain shifts every later timestamp. `record` holds
// the events and ticks in order; `call_ns` every OnAccess's clock.
class CountdownPolicy : public TieringPolicy {
 public:
  static constexpr uint64_t kEventNs = 1000;

  explicit CountdownPolicy(uint64_t period)
      : period_(period), countdown_(period) {}

  std::string_view name() const override { return "countdown"; }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    (void)index;
    (void)page;
    call_ns.push_back(ctx.now_ns);
    if (--countdown_ > 0) {
      return;
    }
    countdown_ = period_;
    ++events;
    record += "event " + std::to_string(access.addr) + " @" +
              std::to_string(ctx.now_ns) + "\n";
    ctx.ChargeApp(kEventNs);
  }
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)ctx;
    (void)is_write;
    if (countdown_ == 1) {
      ++zero_limits;
    }
    return countdown_ - 1;
  }
  void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                 const Access& access, uint64_t n) override {
    (void)ctx;
    (void)index;
    (void)page;
    (void)access;
    countdown_ -= n;
  }
  void Tick(PolicyContext& ctx) override {
    record += "tick @" + std::to_string(ctx.now_ns) + "\n";
  }

  std::string record;
  std::vector<uint64_t> call_ns;
  uint64_t events = 0;
  uint64_t zero_limits = 0;

 private:
  uint64_t period_;
  uint64_t countdown_;
};

// Sweeps 4 KiB pages of one huge page, one 64-access run per page.
class PageRunWorkload : public Workload {
 public:
  explicit PageRunWorkload(bool use_runs) : use_runs_(use_runs) {}

  std::string_view name() const override { return "page-runs"; }
  uint64_t footprint_bytes() const override { return kHugePageSize; }

  void Setup(App& app, Rng& rng) override {
    (void)rng;
    base_ = app.Alloc(kHugePageSize);
  }

  bool Step(App& app, Rng& rng) override {
    (void)rng;
    const Vaddr page = base_ + (step_++ % kSubpagesPerHuge) * kPageSize;
    if (use_runs_) {
      app.ReadRun(page, kRun, kStride);
    } else {
      for (uint64_t i = 0; i < kRun; ++i) {
        app.Read(page + i * kStride);
      }
    }
    return true;
  }

  static constexpr uint64_t kRun = 64;
  static constexpr uint64_t kStride = 64;

 private:
  bool use_runs_;
  Vaddr base_ = 0;
  uint64_t step_ = 0;
};

constexpr uint64_t kSeamPeriod = 24;

struct SeamRun {
  std::string record;
  std::string metrics_json;
  std::vector<uint64_t> call_ns;
  uint64_t events = 0;
  uint64_t zero_limits = 0;
};

SeamRun RunSeam(bool use_runs, uint64_t tick_quantum_ns) {
  PageRunWorkload workload(use_runs);
  CountdownPolicy policy(kSeamPeriod);
  EngineOptions opts;
  opts.max_accesses = PageRunWorkload::kRun;
  opts.tick_quantum_ns = tick_quantum_ns;
  Engine engine(MakeDramOnlyMachine(kHugePageSize), policy, opts);
  SeamRun out;
  out.metrics_json = engine.Run(workload).ToJson(2);
  out.record = policy.record;
  out.call_ns = policy.call_ns;
  out.events = policy.events;
  out.zero_limits = policy.zero_limits;
  return out;
}

// The post-access clock of access `i` (1-based) of the first run, read off
// the scalar twin with no tick in the way.
uint64_t ScalarAccessNs(uint64_t i) {
  return RunSeam(/*use_runs=*/false, /*tick_quantum_ns=*/1'000'000'000)
      .call_ns.at(i - 1);
}

// The deadline lands exactly on the sampled access: the segment still ends
// on it and delivers it in place, so the event precedes the tick and the
// engine never asks for a limit of 0. Batched, OnAccess runs only for events.
TEST(ReplayDifferential, FusedDeliveryOnTheDeadlineAccess) {
  const uint64_t deadline = ScalarAccessNs(kSeamPeriod);
  const SeamRun batched = RunSeam(/*use_runs=*/true, deadline);
  const SeamRun scalar = RunSeam(/*use_runs=*/false, deadline);
  EXPECT_EQ(batched.record, scalar.record);
  EXPECT_EQ(batched.metrics_json, scalar.metrics_json);
  EXPECT_LT(batched.record.find("event"), batched.record.find("tick"))
      << batched.record;
  EXPECT_EQ(batched.call_ns.size(), batched.events);
  EXPECT_EQ(batched.zero_limits, 0u);
}

// The deadline falls one access before the sampled access: the segment stops
// there and only absorbs; the tick runs, and the sampled access follows on
// the scalar path.
TEST(ReplayDifferential, DeadlineOneAccessBeforeDeliveryOnlyAbsorbs) {
  const uint64_t deadline = ScalarAccessNs(kSeamPeriod - 1);
  const SeamRun batched = RunSeam(/*use_runs=*/true, deadline);
  const SeamRun scalar = RunSeam(/*use_runs=*/false, deadline);
  EXPECT_EQ(batched.record, scalar.record);
  EXPECT_EQ(batched.metrics_json, scalar.metrics_json);
  EXPECT_LT(batched.record.find("tick"), batched.record.find("event"))
      << batched.record;
  EXPECT_EQ(batched.call_ns.size(), batched.events);
  EXPECT_EQ(batched.zero_limits, 1u);
}

// --- Sharded execution pins -------------------------------------------------

Metrics RunPlainEngine(const std::string& policy_name, uint64_t seed) {
  StreamWorkload workload(StreamParams(/*use_runs=*/true));
  auto policy = MakePolicy(policy_name, workload.footprint_bytes(),
                           workload.footprint_bytes() / 3);
  EngineOptions opts;
  opts.max_accesses = kAccesses;
  opts.seed = seed;
  const std::unique_ptr<AuditSession> audit = MakeEnvAuditSession();
  opts.audit = audit.get();
  Engine engine(MachineFor(workload, 1.0 / 3.0), *policy, opts);
  return engine.Run(workload);
}

Metrics RunSharded(const std::string& policy_name, uint32_t shards,
                   uint32_t threads, uint64_t seed) {
  StreamWorkload workload(StreamParams(/*use_runs=*/true));
  const uint64_t slice = workload.footprint_bytes() / shards;
  PolicyFactory factory = [&policy_name, slice]() {
    return MakePolicy(policy_name, slice, slice / 3);
  };
  ShardedOptions sopts;
  sopts.shards = shards;
  sopts.threads = threads;
  sopts.engine.max_accesses = kAccesses;
  sopts.engine.seed = seed;
  std::vector<std::unique_ptr<AuditSession>> shard_audit(shards);
  sopts.audit_for_shard = [&shard_audit](uint32_t i) -> EngineObserver* {
    shard_audit[i] = MakeEnvAuditSession();
    return shard_audit[i] != nullptr ? shard_audit[i].get() : nullptr;
  };
  ShardedEngine sharded(MachineFor(workload, 1.0 / 3.0), factory, sopts);
  return sharded.Run(workload);
}

class ShardedIdentityTest : public ::testing::TestWithParam<std::string> {};

// ShardedEngine(1) must be the plain engine, byte for byte: same machine (no
// huge-block rounding), same workload (ShardSlice(0, 1) is the identity),
// same seed, and a merge that returns the single shard verbatim.
TEST_P(ShardedIdentityTest, OneShardMatchesPlainEngineBytes) {
  const Metrics plain = RunPlainEngine(GetParam(), /*seed=*/42);
  const Metrics sharded = RunSharded(GetParam(), /*shards=*/1, /*threads=*/1,
                                     /*seed=*/42);
  EXPECT_EQ(plain.ToJson(2), sharded.ToJson(2));
}

// Which worker thread runs a shard must never leak into the bytes: shards
// share no state, results land in shard-indexed slots, and the merge reads
// them in shard order.
TEST_P(ShardedIdentityTest, ThreadCountNeverChangesShardedBytes) {
  const Metrics serial = RunSharded(GetParam(), /*shards=*/4, /*threads=*/1,
                                    /*seed=*/7);
  const Metrics two = RunSharded(GetParam(), /*shards=*/4, /*threads=*/2,
                                 /*seed=*/7);
  const Metrics four = RunSharded(GetParam(), /*shards=*/4, /*threads=*/4,
                                  /*seed=*/7);
  EXPECT_EQ(serial.ToJson(2), two.ToJson(2));
  EXPECT_EQ(serial.ToJson(2), four.ToJson(2));
}

// The sharded pins run on a representative policy spread rather than all 18:
// the per-policy batched/scalar identity above already covers policy-side
// behavior, and each sharded case runs shards × threads engines.
INSTANTIATE_TEST_SUITE_P(PolicySpread, ShardedIdentityTest,
                         ::testing::Values("memtis", "memtis-ns", "hemem",
                                           "hemem-exchange", "autonuma",
                                           "autotiering"));

// --- Fuzz: batched access interleaved with structural mutation --------------

// A run-oriented fuzz workload: random-length strided runs (often crossing
// page and huge-page boundaries), random scalar pokes, and enough write
// traffic to keep split/collapse/exchange policies busy. The RNG is consumed
// identically in both modes; only the emission differs, exactly like
// StreamWorkload's differential twin.
class FuzzRunWorkload : public Workload {
 public:
  FuzzRunWorkload(uint64_t footprint_bytes, bool use_runs)
      : footprint_bytes_(footprint_bytes), use_runs_(use_runs) {}

  std::string_view name() const override { return "fuzz-runs"; }
  uint64_t footprint_bytes() const override { return footprint_bytes_; }

  void Setup(App& app, Rng& rng) override {
    (void)rng;
    base_ = app.Alloc(footprint_bytes_);
  }

  bool Step(App& app, Rng& rng) override {
    for (int r = 0; r < 4; ++r) {
      const Vaddr addr =
          base_ + rng.NextBelow(footprint_bytes_ - kHugePageSize);
      const bool is_write = rng.NextBool(0.5);
      if (rng.NextBool(0.25)) {
        // Scalar poke.
        if (is_write) {
          app.Write(addr);
        } else {
          app.Read(addr);
        }
        continue;
      }
      // A run: strides from cache-line to page-size, counts long enough to
      // cross base-page (and sometimes huge-page) boundaries.
      const uint64_t stride = uint64_t{64} << rng.NextBelow(7);  // 64 B .. 4 KiB
      const uint64_t count = 1 + rng.NextBelow(192);
      if (use_runs_) {
        if (is_write) {
          app.WriteRun(addr, count, stride);
        } else {
          app.ReadRun(addr, count, stride);
        }
      } else {
        for (uint64_t i = 0; i < count; ++i) {
          if (is_write) {
            app.Write(addr + i * stride);
          } else {
            app.Read(addr + i * stride);
          }
        }
      }
    }
    return true;
  }

 private:
  uint64_t footprint_bytes_;
  bool use_runs_;
  Vaddr base_ = 0;
};

// Policies that exercise every structural mutation the batched path can race
// with: memtis splits/collapses/migrates, hemem-exchange swaps frames,
// autotiering exchanges on a hint fault, tiering-0.8 draws its admission
// from the engine RNG on the fault path, and tpp keeps reference bits.
TEST(ReplayFuzz, BatchedRunsInterleavedWithStructuralMutation) {
  for (const char* policy_name :
       {"memtis", "hemem-exchange", "autotiering", "tiering-0.8", "tpp"}) {
    for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      ReplayOutput out[2];
      for (const bool use_runs : {true, false}) {
        FuzzRunWorkload workload(32ull << 20, use_runs);
        auto policy = MakePolicy(policy_name, workload.footprint_bytes(),
                                 workload.footprint_bytes() / 3);
        EngineOptions opts;
        opts.max_accesses = 50'000;
        opts.seed = seed;
        AuditSession audit;  // collect mode; report asserted below
        opts.audit = &audit;
        Engine engine(MachineFor(workload, 1.0 / 3.0), *policy, opts);
        ReplayOutput& o = out[use_runs ? 0 : 1];
        o.metrics_json = engine.Run(workload).ToJson(2);
        o.violations = audit.report().violations_total;
        ASSERT_TRUE(audit.report().ok())
            << "policy=" << policy_name << " seed=" << seed
            << " use_runs=" << use_runs << "\n" << audit.report().ToJson(2);
      }
      EXPECT_EQ(out[0].metrics_json, out[1].metrics_json)
          << "policy=" << policy_name << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace memtis
