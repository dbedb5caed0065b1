#include "src/runner/checkpoint_runner.h"

#include <csignal>
#include <cstdlib>
#include <memory>

#include "src/audit/audit_session.h"
#include "src/common/check.h"
#include "src/sim/engine.h"
#include "src/snapshot/state_codec.h"
#include "src/snapshot/snapshot_file.h"

namespace memtis {
namespace {

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
    // Workload regions must be live regions of the restored address space:
    // the workload list cannot see it, so the load hands it over here.
    c.CheckRegionsWith([&mem = engine.mem()](uint64_t base, uint64_t bytes) {
      const auto region = mem.RegionAt(base);
      return region.has_value() && (region->first << kPageShift) == base &&
             (region->second << kPageShift) >= bytes;
    });
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
  if (!r.Done()) {
    return false;
  }
  // Every list accepted its part; one full census on an auditor of its own
  // (the cell's audit counters stay untouched) checks the parts agree.
  InvariantAuditor census;
  census.AuditNow(engine, /*include_expensive=*/true);
  return census.report().violations_total == 0;
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
  // RestoreFromPayload's checks falls through to pass 1, which always starts
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
    engine.EnableCheckpoints(ctx.interval_ns, [&] {
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

    return CollectResult(spec, cell, engine.Run(*cell.workload));
  }
  SIM_CHECK(false && "unreachable: pass 1 never resumes");
  return JobResult{};
}

}  // namespace memtis
