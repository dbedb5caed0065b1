// Engine: the deterministic virtual-time simulation loop.
//
// Drives a Workload against a MemorySystem under a TieringPolicy:
//   access -> page-table lookup (demand fault if a split left a hole) ->
//   TLB -> tier latency -> policy hook -> periodic daemon ticks/snapshots.
// All time is virtual nanoseconds accumulated from the cost model, so runs are
// bit-for-bit reproducible for a given seed.

#ifndef MEMTIS_SIM_SRC_SIM_ENGINE_H_
#define MEMTIS_SIM_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/mem/memory_system.h"
#include "src/mem/tlb.h"
#include "src/sim/cost_model.h"
#include "src/sim/metrics.h"
#include "src/sim/policy.h"
#include "src/sim/workload.h"

namespace memtis {

class TraceWriter;
class Engine;

// Observation hook driven by the engine: OnTick fires after every daemon tick,
// OnRunEnd after each Run() returns (with final metrics filled in). The audit
// layer (src/audit/) implements this to run invariant checks and record
// per-epoch telemetry. Implementations MUST be observation-only — calling
// anything that mutates simulation state (allocations, migrations, token
// refills) would break the bit-for-bit reproducibility the audit layer exists
// to certify; tests/differential_test.cc enforces this.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void OnTick(Engine& engine) { (void)engine; }
  virtual void OnRunEnd(Engine& engine) { (void)engine; }
};

struct MachineConfig {
  MemoryConfig mem;
  TlbConfig tlb;
  CostParams costs;
  uint32_t cores = 20;
};

// Convenience builders for the paper's tier setups.
MachineConfig MakeNvmMachine(uint64_t fast_bytes, uint64_t capacity_bytes);
MachineConfig MakeCxlMachine(uint64_t fast_bytes, uint64_t capacity_bytes);
MachineConfig MakeDramOnlyMachine(uint64_t bytes);

struct EngineOptions {
  uint64_t max_accesses = 10'000'000;
  // Virtual-time granularity at which the policy's background daemons get to
  // run (the policy decides internally what is due).
  uint64_t tick_quantum_ns = 20'000;
  // 0 disables timeline snapshots.
  uint64_t snapshot_interval_ns = 0;
  // Daemon CPU displaces app CPU (paper runs app threads on all cores).
  bool cpu_contention = true;
  uint64_t seed = 42;
  // Optional access-trace recording (see src/trace/trace.h). Not owned.
  TraceWriter* trace = nullptr;
  // Optional audit/observability hook (see src/audit/). Not owned.
  EngineObserver* audit = nullptr;
  // Fault-injection schedule (see src/fault/). The default (no active site)
  // leaves every injection point inert and the run byte-identical to a
  // fault-free build.
  FaultPlan faults;
};

class Engine {
 public:
  Engine(const MachineConfig& machine, TieringPolicy& policy,
         const EngineOptions& options);

  // Runs the workload to natural completion or the access budget and returns
  // the collected metrics. May be called again (with a raised budget via
  // set_max_accesses) to continue the same run — used by phase analyses.
  Metrics Run(Workload& workload);

  void set_max_accesses(uint64_t max_accesses) { options_.max_accesses = max_accesses; }

  // --- App-facing operations (used via the App facade) -----------------------
  void DoAccess(Vaddr addr, bool is_write);
  // Batched replay: `count` accesses starting at `addr`, advancing by `stride`
  // bytes each. Coalesces same-page runs (one lookup/TLB probe/latency fetch
  // per run, bulk counter deltas, one AbsorbRun for the policy) and falls
  // back to the scalar path at page boundaries, demand faults, and events due
  // on a segment's first access (an armed hint-fault page, a sample due on
  // the next access). A segment ends at the tick/snapshot deadline, or on the
  // policy's next event, which it delivers in place through OnAccess.
  // Metrics, audit documents, and traces are bit-identical to issuing
  // `count` DoAccess calls.
  void DoAccessRun(Vaddr addr, uint64_t count, uint64_t stride, bool is_write);
  Vaddr DoAlloc(uint64_t bytes, bool use_thp);
  void DoFree(Vaddr start);

  uint64_t now_ns() const { return now_ns_; }
  uint64_t accesses() const { return metrics_.accesses; }

  MemorySystem& mem() { return mem_; }
  Tlb& tlb() { return tlb_; }
  TieringPolicy& policy() { return policy_; }
  Metrics& metrics() { return metrics_; }
  PolicyContext& ctx() { return ctx_; }
  const FaultInjector& faults() const { return fault_injector_; }

  // --- Checkpointing (src/snapshot/) ------------------------------------------
  //
  // EnableCheckpoints arms an observation-only hook that fires at the first
  // Step() boundary at or past each multiple of `interval_ns` of virtual
  // time (skip-ahead like the tick schedule, so a long stall produces one
  // checkpoint, not a burst). The hook must not touch simulation state:
  // checkpointing on vs off stays byte-identical. Call it again after a
  // load to re-derive the next deadline from the restored clock.
  void EnableCheckpoints(uint64_t interval_ns, std::function<void()> fn);

  // The engine-owned mutable state (src/snapshot/state_codec.h): clocks, RNG
  // stream, metrics, migration budget, fault-injector cursors, TLB ledger,
  // and the full MemorySystem. Policy and workload state are listed by
  // their own hooks. A load assumes `this` was freshly constructed from the
  // same MachineConfig, EngineOptions, and policy; mismatches fail it.
  void VisitState(StateCodec& c);

 private:
  void DoAccessImpl(Vaddr addr, bool is_write);
  void DrainPendingAppTime();
  void MaybeTickAndSnapshot();
  void TakeSnapshot();
  void MaybeShrinkFastTier();

  EngineOptions options_;
  CostParams costs_;
  MemorySystem mem_;
  Tlb tlb_;
  TieringPolicy& policy_;
  Rng rng_;
  Metrics metrics_;
  MigrationBudget migration_budget_;
  FaultInjector fault_injector_;
  PolicyContext ctx_;

  void UpdateNextEvent();

  bool started_ = false;
  uint64_t now_ns_ = 0;
  uint64_t next_tick_ns_;
  uint64_t next_snapshot_ns_;  // UINT64_MAX when snapshots are disabled
  // min(next_tick_ns_, next_snapshot_ns_): the access hot path compares
  // against this single deadline instead of re-evaluating both schedules.
  uint64_t next_event_ns_;
  TraceWriter* trace_;  // cached options_.trace (hoists the per-access load)
  // kTierShrink bookkeeping: frames pinned so far and the plan's per-step /
  // cumulative-cap sizes resolved against the fast tier (0 when inert).
  uint64_t fault_shrunk_frames_ = 0;
  uint64_t fault_shrink_step_frames_ = 0;
  uint64_t fault_shrink_cap_frames_ = 0;
  uint64_t window_accesses_ = 0;
  uint64_t window_fast_ = 0;
  uint64_t window_start_ns_ = 0;
  // Checkpoint hook schedule (UINT64_MAX = disabled; one compare per Step).
  uint64_t checkpoint_interval_ns_ = 0;
  uint64_t next_checkpoint_ns_ = UINT64_MAX;
  std::function<void()> checkpoint_fn_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_ENGINE_H_
