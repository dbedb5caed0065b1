// Runtime invariant auditing for the simulator.
//
// The simulator maintains several redundant views of the same state (buddy
// free lists vs. page-table mappings, incremental histograms vs. per-page
// counters, token-bucket balances vs. consumption ledgers). Each redundancy is
// an invariant this layer certifies: the component-level Check* functions
// recompute one side from first principles and compare, and InvariantAuditor
// runs them from the engine's observation hook — every daemon tick under
// MEMTIS_AUDIT / --audit, and always at run end.
//
// All checks are strictly observation-only: they never allocate, migrate, or
// refill, so an audited run is bit-for-bit identical to an unaudited one
// (tests/differential_test.cc holds this to byte-identical metrics JSON).

#ifndef MEMTIS_SIM_SRC_AUDIT_AUDIT_H_
#define MEMTIS_SIM_SRC_AUDIT_AUDIT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/mem/memory_system.h"
#include "src/mem/tlb.h"
#include "src/sim/engine.h"
#include "src/sim/migration_budget.h"

namespace memtis {

class JsonWriter;
class MemtisPolicy;

// One failed invariant, with the virtual-time context it fired in.
struct AuditViolation {
  std::string invariant;  // e.g. "frame-conservation"
  std::string detail;     // human-readable mismatch description
  uint64_t t_ns = 0;      // virtual time of the audit point
  uint64_t tick = 0;      // engine tick count at the audit point (0 = pre-tick)

  template <class V>
  void VisitFields(V& v) {
    v.Field("invariant", invariant);
    v.Field("detail", detail);
    v.Field("t_ns", t_ns);
    v.Field("tick", tick);
  }
};

// Aggregate outcome of a run's audits.
struct AuditReport {
  uint64_t ticks_audited = 0;
  uint64_t checks_run = 0;
  uint64_t violations_total = 0;
  // First `max_recorded` violations (the total keeps counting past the cap).
  std::vector<AuditViolation> violations;

  bool ok() const { return violations_total == 0; }

  // The one field list (src/common/json_fields.h); WriteJson, ToJson,
  // DecodeJson and the snapshot codec all walk it, so a new field is added
  // here only.
  template <class V>
  void VisitFields(V& v) {
    v.Derived("ok", [this] { return ok(); });
    v.Field("ticks_audited", ticks_audited);
    v.Field("checks_run", checks_run);
    v.Field("violations_total", violations_total);
    v.Array("violations", violations);
  }

  void WriteJson(JsonWriter& w) const;
  std::string ToJson(int indent = 0) const;
};

// Sink the Check* functions report into. Carries the virtual-time context and
// either collects violations into an AuditReport or aborts on the first one
// (CHECK-style, used under MEMTIS_AUDIT so any test run fails loudly).
class AuditCollector {
 public:
  explicit AuditCollector(AuditReport* report, bool abort_on_violation = false,
                          uint64_t max_recorded = 64)
      : report_(report),
        abort_on_violation_(abort_on_violation),
        max_recorded_(max_recorded) {}

  void SetContext(uint64_t t_ns, uint64_t tick) {
    t_ns_ = t_ns;
    tick_ = tick;
  }
  uint64_t t_ns() const { return t_ns_; }
  uint64_t tick() const { return tick_; }

  // Called once per invariant evaluation (for the report's checks_run).
  void BeginCheck() { ++report_->checks_run; }

  // Reports one violation of `invariant`.
  void Fail(std::string_view invariant, std::string detail);

  const AuditReport& report() const { return *report_; }

 private:
  AuditReport* report_;
  bool abort_on_violation_;
  uint64_t max_recorded_;
  uint64_t t_ns_ = 0;
  uint64_t tick_ = 0;
};

// --- Component-level invariant checks ----------------------------------------
//
// Each recomputes ground truth from one structure and cross-checks another.
// They take components (not an Engine), so unit and fuzz tests can audit a
// bare MemorySystem or policy without building a full simulation.

// Frame conservation: per tier, the 4 KiB pages mapped by live page metadata
// plus the frames pinned by start-up fragmentation equal the buddy allocator's
// used-frame count, used + free frames equal the tier's capacity, and the
// buddy free lists themselves are internally consistent.
void CheckFrameConservation(const MemorySystem& mem, AuditCollector& out);

// Page-table mapping: page table, live-page metadata, and allocator state
// agree (every live page's vpns map back to it, counts match, frames are in
// the allocated state).
void CheckPageTableMapping(MemorySystem& mem, AuditCollector& out);

// Huge/base page accounting: huge pages carry subpage metadata with a
// huge-aligned base vpn (base pages carry none); per-subpage sample counters
// never exceed the page counter (cooling floors preserve the direction); the
// nonzero-subpage summary the cooling scan-skip relies on matches a recount;
// and split-generated demand faults never outnumber split-freed subpages.
void CheckHugePageAccounting(MemorySystem& mem, AuditCollector& out);

// Incremental counters: the O(1) metric counters (live huge pages, written
// subpages, bloat, per-tier mapped-4k) match the census of the live page
// metadata, and the HugePageMeta pool conserves its buffers
// (allocated == pooled + live huge pages). These counters replaced the old
// full-scan metrics, so this check is what keeps the fast path honest.
void CheckIncrementalCounters(const MemorySystem& mem, AuditCollector& out);

// TLB coherence: every valid TLB entry translates a currently mapped vpn of
// the matching page kind (migrations, splits, collapses, and unmaps must have
// shot down every stale entry).
void CheckTlbCoherence(const Tlb& tlb, const MemorySystem& mem,
                       AuditCollector& out);

// Migration-budget ledger: starting burst + credited refills - consumed
// tokens equals the current balance, which never exceeds the burst.
void CheckMigrationLedger(const MigrationBudget& budget, AuditCollector& out);

// Exchange accounting: every injected exchange-abort rolled back exactly one
// ExchangePages call (the memory system's aborted_exchanges tracks the
// injector 1:1) and the exchange counters are internally consistent
// (huge-page exchanges never exceed the total). Frame conservation and TLB
// coherence across the swap itself are certified by the checks above — an
// exchange that leaked a frame or left a stale translation trips them.
void CheckExchangeAccounting(const MemorySystem& mem, const FaultStats& faults,
                             AuditCollector& out);

// MEMTIS sample ledger: the policy processed exactly as many samples as the
// sampler produced, and the sampler's modelled CPU time is exactly
// samples x sample_cost.
void CheckMemtisSampleLedger(const MemtisPolicy& policy, AuditCollector& out);

// MEMTIS histogram mass (cheap): both histograms' total mass equals the
// number of mapped 4 KiB pages.
void CheckMemtisHistogramMass(const MemtisPolicy& policy,
                              const MemorySystem& mem, AuditCollector& out);

// MEMTIS histogram recompute (expensive, O(pages x subpages)): rebuilds both
// histograms from per-page counters and compares every bin and cached bin.
void CheckMemtisHistogramsFull(const MemtisPolicy& policy, MemorySystem& mem,
                               AuditCollector& out);

// Tenant conservation: every tenant's per-tier page counters match a
// from-scratch recount over page ownership, the per-tenant counters sum back
// to the global per-tier counters, fast usage never exceeds
// max(quota, borrow window), and each armed promotion bucket's ledger balances
// (burst + credited - consumed == tokens <= burst).
void CheckTenantConservation(MemorySystem& mem, AuditCollector& out);

// MEMTIS per-tenant histogram mass: the per-tenant page histograms partition
// the global one — each tenant's mass equals its mapped 4 KiB pages and the
// slices sum to the global histogram's total.
void CheckMemtisTenantHistograms(const MemtisPolicy& policy,
                                 const MemorySystem& mem, AuditCollector& out);

// --- Engine-driven auditor ----------------------------------------------------

// EngineObserver that runs a registered set of invariant checks at daemon-tick
// granularity and at run end. The default registration covers every check
// above (MEMTIS-specific ones fire only when the engine's policy is a
// MemtisPolicy) plus the engine-level TLB access ledger
// (hits + misses == accesses). Additional invariants can be registered with
// RegisterCheck (see README "Auditing and epoch telemetry").
class InvariantAuditor : public EngineObserver {
 public:
  struct Options {
    // Audit at tick granularity (false: only at run end).
    bool every_tick = true;
    // Audit every Nth tick (1 = every tick).
    uint64_t tick_stride = 1;
    // Run expensive checks every Nth audited tick (they always run at run
    // end); 0 disables them at ticks.
    uint64_t expensive_stride = 16;
    // Abort the process on the first violation (CHECK-style) instead of
    // collecting it.
    bool abort_on_violation = false;
    // Cap on violations recorded in the report (the total keeps counting).
    uint64_t max_recorded_violations = 64;
  };

  using CheckFn = std::function<void(Engine&, AuditCollector&)>;

  InvariantAuditor();
  explicit InvariantAuditor(const Options& options);
  // The default checks read census_ through `this`.
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // Adds an invariant. `expensive` checks run on the expensive_stride only.
  void RegisterCheck(std::string name, bool expensive, CheckFn fn);

  void OnTick(Engine& engine) override;
  void OnRunEnd(Engine& engine) override;

  // Runs all registered checks once, against one fresh census of the engine.
  void AuditNow(Engine& engine, bool include_expensive);

  const AuditReport& report() const { return report_; }
  uint64_t ticks_seen() const { return ticks_seen_; }

  // Checkpointing: the report plus the tick/audit counters, so a restored
  // run's audit document matches the uninterrupted one byte for byte.
  // Registered checks are reconstructed by construction.
  void VisitState(StateCodec& c);

 private:
  struct Check {
    std::string name;
    bool expensive = false;
    CheckFn fn;
  };

  void RegisterDefaultChecks();

  Options options_;
  AuditReport report_;
  AuditCollector collector_;
  MemCensus census_;  // this audit point's; retaken by every AuditNow
  std::vector<Check> checks_;
  uint64_t ticks_seen_ = 0;
  uint64_t audits_run_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_AUDIT_AUDIT_H_
