#include "src/runner/checkpoint_runner.h"

#include <csignal>
#include <cstdlib>
#include <memory>

#include "src/audit/audit_session.h"
#include "src/common/check.h"
#include "src/memtis/policy_registry.h"
#include "src/policies/hemem.h"
#include "src/sim/engine.h"
#include "src/snapshot/state_codec.h"
#include "src/snapshot/snapshot_file.h"
#include "src/workloads/registry.h"

namespace memtis {
namespace {

struct Cell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  std::unique_ptr<AuditSession> audit;
  std::unique_ptr<Engine> engine;
  uint64_t footprint = 0;
  uint64_t fast = 0;
};

// Builds workload, policy, audit session, and engine exactly the way
// RunJob() does (src/runner/sweep.cc) — any divergence here would break the
// checkpointed-equals-plain byte-identity bar.
Cell BuildCell(const JobSpec& spec) {
  Cell cell;
  const double footprint_scale =
      spec.footprint_scale > 0.0 ? spec.footprint_scale : BenchFootprintScale();
  cell.workload =
      MakeWorkload(spec.benchmark, footprint_scale, spec.workload_seed_offset());
  cell.footprint = cell.workload->footprint_bytes();
  cell.fast = spec.fast_bytes_override != 0
                  ? spec.fast_bytes_override
                  : static_cast<uint64_t>(static_cast<double>(cell.footprint) *
                                          spec.fast_ratio);
  const uint64_t capacity = cell.footprint + cell.footprint / 2;
  cell.policy = MakePolicy(spec.system, cell.footprint, cell.fast);

  const MachineConfig machine = spec.cxl
                                    ? MakeCxlMachine(cell.fast, capacity)
                                    : MakeNvmMachine(cell.fast, capacity);
  EngineOptions opts;
  opts.max_accesses = spec.accesses != 0 ? spec.accesses : DefaultAccesses();
  opts.snapshot_interval_ns = spec.snapshot_interval_ns;
  opts.cpu_contention = spec.cpu_contention;
  opts.seed = spec.engine_seed;
  if (!spec.faults.empty()) {
    std::string fault_error;
    SIM_CHECK(FaultPlan::Parse(spec.faults, &opts.faults, &fault_error) &&
              "bad JobSpec::faults spec (validate at the CLI)");
  }

  if (spec.audit) {
    AuditSessionOptions audit_opts;
    audit_opts.record_epochs = spec.audit_epoch_interval_ns != 0;
    audit_opts.epochs.interval_ns =
        spec.audit_epoch_interval_ns != 0 ? spec.audit_epoch_interval_ns
                                          : audit_opts.epochs.interval_ns;
    cell.audit = std::make_unique<AuditSession>(audit_opts);
  } else {
    cell.audit = MakeEnvAuditSession();
  }
  opts.audit = cell.audit.get();
  cell.engine = std::make_unique<Engine>(machine, *cell.policy, opts);
  return cell;
}

// The payload's one list: the engine section embeds the full MemorySystem;
// policy and workload follow; the audit session closes the stream
// (presence-checked so plain and MEMTIS_AUDIT=1 runs both checkpoint).
void VisitCell(StateCodec& c, Engine& engine, TieringPolicy& policy,
               Workload& workload, AuditSession* audit) {
  engine.VisitState(c);
  if (c.loading()) {
    if (!c.ok()) {
      return;  // Init must not see a half-restored engine
    }
    // Policies re-attach engine-owned resources (the sampler's fault
    // injector) in Init(); the load then overwrites whatever Init reset.
    policy.Init(engine.ctx());
  }
  policy.VisitState(c);
  workload.VisitState(c);
  c.Check("audit", audit != nullptr);
  if (audit != nullptr && c.ok()) {
    audit->VisitState(c);
  }
}

}  // namespace

std::string BuildSnapshotPayload(const Engine& engine,
                                 const TieringPolicy& policy,
                                 const Workload& workload,
                                 const AuditSession* audit) {
  // The state lists serve both directions, so they are non-const; a save
  // only reads through them.
  StateWriter w;
  StateCodec c(w);
  VisitCell(c, const_cast<Engine&>(engine), const_cast<TieringPolicy&>(policy),
            const_cast<Workload&>(workload), const_cast<AuditSession*>(audit));
  return w.Take();
}

bool RestoreFromPayload(const std::string& payload, Engine& engine,
                        TieringPolicy& policy, Workload& workload,
                        AuditSession* audit) {
  StateReader r(payload);
  StateCodec c(r);
  VisitCell(c, engine, policy, workload, audit);
  return r.Done();
}

bool CheckpointSupported(const JobSpec& spec, std::string* why) {
  if (spec.shards > 1) {
    if (why != nullptr) {
      *why = "sharded cells (shards=" + std::to_string(spec.shards) +
             ") have no snapshot plumbing";
    }
    return false;
  }
  if (spec.memtis_tweak != nullptr) {
    if (why != nullptr) {
      *why = "opaque memtis_tweak hook is not representable in a snapshot";
    }
    return false;
  }
  // Probe SupportsCheckpoint on throwaway instances; sizes are irrelevant.
  const auto policy = MakePolicy(spec.system, 64ull << 20, 16ull << 20);
  if (!policy->SupportsCheckpoint()) {
    if (why != nullptr) {
      *why = "policy '" + spec.system + "' does not support checkpointing";
    }
    return false;
  }
  const auto workload = MakeWorkload(spec.benchmark);
  if (!workload->SupportsCheckpoint()) {
    if (why != nullptr) {
      *why = "benchmark '" + spec.benchmark + "' does not support checkpointing";
    }
    return false;
  }
  return true;
}

JobResult RunJobCheckpointed(const JobSpec& spec, const CheckpointContext& ctx) {
  SIM_CHECK_GT(ctx.interval_ns, 0u);
  SIM_CHECK(!ctx.snapshot_base.empty());
  {
    std::string why;
    SIM_CHECK(CheckpointSupported(spec, &why) && "cell cannot checkpoint");
  }

  SnapshotStore store(ctx.snapshot_base);
  SnapshotBlob blob;
  const bool have_snapshot =
      store.LoadNewest(ctx.fingerprint, ctx.attempt, &blob);

  int kill_after = 0;  // test hook: self-SIGKILL after N snapshots (fresh runs)
  if (const char* env = std::getenv("MEMTIS_KILL_AFTER_CHECKPOINTS");
      env != nullptr && env[0] != '\0') {
    kill_after = std::atoi(env);
  }

  // Pass 0 tries to resume from the decoded snapshot; a payload that fails
  // component-level validation falls through to pass 1, which always starts
  // clean. Fresh objects are built per pass — a half-restored engine is
  // never run.
  for (int pass = 0; pass < 2; ++pass) {
    const bool try_resume = pass == 0 && have_snapshot;
    Cell cell = BuildCell(spec);
    bool resumed = false;
    if (try_resume) {
      if (!RestoreFromPayload(blob.payload, *cell.engine, *cell.policy,
                              *cell.workload, cell.audit.get())) {
        continue;  // discard, rebuild clean
      }
      resumed = true;
    }
    if (ctx.resumed != nullptr) {
      *ctx.resumed = resumed;
    }

    uint64_t snapshots_written = 0;
    Engine& engine = *cell.engine;
    cell.engine->EnableCheckpoints(ctx.interval_ns, [&] {
      const std::string snap = BuildSnapshotPayload(
          engine, *cell.policy, *cell.workload, cell.audit.get());
      std::string error;
      // A failed write (disk full, unwritable dir) only loses resumability;
      // the run itself continues.
      store.Write(ctx.fingerprint, ctx.attempt, snap, &error);
      ++snapshots_written;
      if (kill_after > 0 && !resumed &&
          snapshots_written == static_cast<uint64_t>(kill_after)) {
        raise(SIGKILL);
      }
    });

    JobResult out;
    out.metrics = engine.Run(*cell.workload);
    if (spec.audit) {
      out.audited = true;
      out.audit_report = cell.audit->report();
      if (const EpochRecorder* recorder = cell.audit->recorder()) {
        out.epoch_interval_ns = recorder->options().interval_ns;
        out.epochs_recorded_total = recorder->recorded_total();
        out.epochs = recorder->samples();
      }
    }
    out.footprint_bytes = cell.footprint;
    out.fast_bytes = cell.fast;
    if (auto* memtis = dynamic_cast<MemtisPolicy*>(cell.policy.get())) {
      out.is_memtis = true;
      out.memtis_stats = memtis->stats();
      out.mean_ehr = memtis->mean_ehr();
      out.sampler_cpu =
          out.metrics.cpu.core_share(DaemonKind::kSampler, out.metrics.app_ns);
      out.pebs_load_period = memtis->sampler().period(SampleType::kLlcLoadMiss);
      out.pebs_store_period = memtis->sampler().period(SampleType::kStore);
    }
    if (auto* hemem = dynamic_cast<HeMemPolicy*>(cell.policy.get())) {
      out.hemem_overalloc_bytes = hemem->over_allocated_bytes();
    }
    return out;
  }
  SIM_CHECK(false && "unreachable: pass 1 never resumes");
  return JobResult{};
}

}  // namespace memtis
