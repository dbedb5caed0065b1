// Checkpointed cell execution: RunJob with a periodic snapshot of the
// complete simulation state, and restore-on-restart.
//
// The contract (see DESIGN.md "Snapshot format and checkpointed cells"):
//
//  - Fidelity. A checkpointed run that is never interrupted is byte-identical
//    to RunJob(spec): the checkpoint hook fires at Step() boundaries and is
//    observation-only. A run that is SIGKILLed at ANY point and restarted
//    restores from the newest valid snapshot and finishes with byte-identical
//    metrics, audit document, and sink bytes (tests/snapshot_test.cc).
//  - Coverage. Every policy MakePolicy builds and every workload MakeWorkload
//    builds lists its state once in VisitState, and the same list saves and
//    loads (src/snapshot/state_codec.h); the cell is built by the same
//    BuildCell as RunJob's (src/runner/sweep.h). Only two facts about the
//    spec itself refuse, through CheckpointSupported(spec): sharded cells and
//    an opaque memtis_tweak hook. A supervised attempt checks them before it
//    forks and fails the cell with a structured kInvalidSpec.
//  - Staleness. Snapshots are keyed by (cell fingerprint, attempt): a re-run
//    under a different attempt (different derived engine seed) ignores old
//    snapshots and starts clean; only a same-attempt restart resumes.
//  - Safety. Corrupt, torn, or version-skewed snapshot files are detected by
//    the CRC-guarded envelope (src/snapshot/snapshot_file.h), quarantined,
//    and skipped; a payload that decodes but does not match the rebuilt
//    engine (config drift, layout skew, a workload region the restored
//    memory system does not hold, an invariant the full audit census finds
//    broken) is discarded and the run starts fresh. Every failure mode
//    degrades to recomputation — never to a wrong result.

#ifndef MEMTIS_SIM_SRC_RUNNER_CHECKPOINT_RUNNER_H_
#define MEMTIS_SIM_SRC_RUNNER_CHECKPOINT_RUNNER_H_

#include <cstdint>
#include <string>

#include "src/runner/sweep.h"

namespace memtis {

// True when the cell can checkpoint: it is unsharded (shard sub-engines have
// no snapshot plumbing) and carries no opaque memtis_tweak hook (not
// representable in a snapshot key). Looks at the spec alone. `why`, when
// non-null, receives a one-line reason on refusal.
bool CheckpointSupported(const JobSpec& spec, std::string* why = nullptr);

class AuditSession;
class Engine;
class TieringPolicy;
class Workload;

// One snapshot payload: the complete state of a cell's components (`audit`
// may be null).
std::string BuildSnapshotPayload(const Engine& engine,
                                 const TieringPolicy& policy,
                                 const Workload& workload,
                                 const AuditSession* audit);

// Restores a payload into freshly constructed components. Returns false (and
// leaves the components unusable — the caller rebuilds from scratch) on any
// mismatch: section-marker skew, config drift caught by a state list's
// cross-check, an index out of range, a workload region that is not a live
// region of the restored memory system, trailing garbage, audit-presence
// disagreement, or any violation in one full InvariantAuditor census of the
// restored engine.
bool RestoreFromPayload(const std::string& payload, Engine& engine,
                        TieringPolicy& policy, Workload& workload,
                        AuditSession* audit);

// Where RunJobCheckpointed keeps (and looks for) its snapshots.
struct CheckpointContext {
  // Virtual nanoseconds between snapshots (must be > 0).
  uint64_t interval_ns = 0;
  // SnapshotStore base path; slots land at base + ".s0"/".s1".
  std::string snapshot_base;
  // Snapshot identity: the cell fingerprint and the global attempt index.
  // The spec's engine_seed must already be the attempt-derived seed.
  std::string fingerprint;
  uint32_t attempt = 0;
  // Out (optional): set true when the run restored from a snapshot.
  bool* resumed = nullptr;
};

// RunJob(spec) with checkpointing armed. Requires CheckpointSupported(spec).
// Restores from the newest valid same-(fingerprint, attempt) snapshot when
// one exists, else starts clean; either way writes a snapshot every
// interval_ns of virtual time.
//
// Test-only hook (checkpointed supervised children only):
//   MEMTIS_KILL_AFTER_CHECKPOINTS=N  a fresh (non-resumed) run raises
//       SIGKILL immediately after writing its Nth snapshot; resumed runs
//       never self-kill. This is how the kill/resume differential tests
//       produce a deterministic mid-run SIGKILL.
JobResult RunJobCheckpointed(const JobSpec& spec, const CheckpointContext& ctx);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_CHECKPOINT_RUNNER_H_
