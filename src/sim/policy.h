// TieringPolicy: the interface every memory-tiering system implements.
//
// The engine resolves each access to a page, charges translation + tier
// latency, then invokes the policy's per-access hook. Policies do their
// tracking there (reference bits, PEBS sampling...), perform background work
// in Tick(), and steer allocation placement via PlacementFor(). Critical-path
// costs (fault-handler migrations, hint faults) are charged with
// PolicyContext::ChargeApp; background work with ChargeDaemon.

#ifndef MEMTIS_SIM_SRC_SIM_POLICY_H_
#define MEMTIS_SIM_SRC_SIM_POLICY_H_

#include <cstdint>
#include <string_view>

#include "src/common/rng.h"
#include "src/mem/memory_system.h"
#include "src/mem/tlb.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_account.h"
#include "src/sim/metrics.h"
#include "src/sim/migration_budget.h"

namespace memtis {

struct PolicyContext {
  MemorySystem& mem;
  Tlb& tlb;
  const CostParams& costs;
  CpuAccount& cpu;
  Rng& rng;
  MigrationBudget& migration_budget;
  // The run's fault injector (src/fault/); nullptr in bare test contexts.
  // Policies that own a PebsSampler attach it here during Init.
  FaultInjector* faults = nullptr;
  uint64_t now_ns = 0;

  // Critical-path time the policy wants charged to the app for the current
  // event; the engine drains this after each hook.
  uint64_t pending_app_ns = 0;

  // The page backing the same-page run whose absorb limit the engine is
  // asking for: set by Engine::DoAccessRun just before each RunAbsorbLimit
  // call and meaningful only inside it.
  const PageInfo* run_page = nullptr;

  void ChargeApp(uint64_t ns) { pending_app_ns += ns; }
  void ChargeDaemon(DaemonKind kind, uint64_t ns) { cpu.Charge(kind, ns); }
};

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  virtual std::string_view name() const = 0;

  // Called once before the workload starts.
  virtual void Init(PolicyContext& ctx) { (void)ctx; }

  // Called for every memory access after address translation; `page` is the
  // OS page (base or huge) backing the access.
  virtual void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                        const Access& access) = 0;

  // --- Batched replay (Engine::DoAccessRun) -----------------------------------
  //
  // A policy whose next k OnAccess calls for accesses of the given kind to
  // ctx.run_page reduce to one bulk update (a PEBS countdown that cannot reach
  // a sample, a page not armed for a hint fault, an idempotent reference mark)
  // may return k here; the engine then replaces up to k consecutive same-page
  // OnAccess calls with one AbsorbRun(n). The contract is strict byte identity:
  // AbsorbRun(n) must leave the policy in exactly the state n scalar OnAccess
  // calls would have, and must not touch ctx (no ChargeApp or ChargeDaemon, no
  // migrations, no RNG draws). kAbsorbAll means no access to this page can do
  // more than AbsorbRun does until the next Tick; segments never cross a tick
  // deadline. The default, absorb nothing, keeps a policy on the scalar path.
  //
  // Fused delivery: when the limit L is smaller than the run's remaining
  // same-page accesses, access L+1 is the policy's next real event. Unless
  // the tick/snapshot deadline cuts the segment first, the engine ends the
  // segment on it: AbsorbRun(L), then OnAccess for that access (same page,
  // same `now_ns` as the scalar path), then drains ChargeApp time.
  static constexpr uint64_t kAbsorbAll = UINT64_MAX;

  virtual uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) {
    (void)ctx;
    (void)is_write;
    return 0;
  }
  virtual void AbsorbRun(PolicyContext& ctx, PageIndex index, PageInfo& page,
                         const Access& access, uint64_t n) {
    (void)ctx;
    (void)index;
    (void)page;
    (void)access;
    (void)n;
  }

  // Page lifecycle notifications (region allocation/free, demand faults).
  virtual void OnPageAllocated(PolicyContext& ctx, PageIndex index, PageInfo& page) {
    (void)ctx;
    (void)index;
    (void)page;
  }
  virtual void OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) {
    (void)ctx;
    (void)index;
    (void)page;
  }

  // Background daemon quantum; the engine calls this every
  // EngineOptions::tick_quantum_ns of virtual time. The policy runs whatever
  // daemons are due (kmigrated-style wakeups, scan intervals...).
  virtual void Tick(PolicyContext& ctx) { (void)ctx; }

  // Placement of newly allocated regions / demand faults (`bytes` is the
  // allocation size; demand faults pass kPageSize). Default: fast tier first,
  // spill to capacity.
  virtual AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes, bool use_thp) {
    (void)ctx;
    (void)bytes;
    return AllocOptions{.preferred = TierId::kFast,
                        .allow_other_tier = true,
                        .use_thp = use_thp};
  }

  // Current hot/warm/cold classification, for timeline figures. Policies
  // without an explicit classification may return zeros.
  virtual ClassifiedSizes Classify(PolicyContext& ctx) {
    (void)ctx;
    return {};
  }

  // --- Checkpointing (src/snapshot/) ------------------------------------------
  //
  // VisitState lists every mutable field once (src/snapshot/state_codec.h);
  // the same list saves and, into a freshly constructed policy with the same
  // parameters after Init() ran (Init must be attach-only / idempotent),
  // loads. Every policy MakePolicy builds overrides it, and the kill-anywhere
  // tests walk KnownPolicyNames(), so a registered policy whose list misses a
  // field fails there. The no-op default serves policies no JobSpec can name
  // (test decorators, layer tracers).
  virtual void VisitState(StateCodec& c) { (void)c; }
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_POLICY_H_
