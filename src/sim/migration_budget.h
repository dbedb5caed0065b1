// Shared migration bandwidth budget.
//
// Kernel page migration has finite throughput (copy bandwidth, lock/IPI
// overhead), so a tiering system cannot move pages faster than a few hundred
// MB/s without eating the application's memory bandwidth. All background
// migration — regardless of policy — draws from this token bucket; policies
// that migrate the *right* pages win, policies that thrash stall their own
// migration pipeline (and still pay interference per moved page).

#ifndef MEMTIS_SIM_SRC_SIM_MIGRATION_BUDGET_H_
#define MEMTIS_SIM_SRC_SIM_MIGRATION_BUDGET_H_

#include <algorithm>
#include <cstdint>

#include "src/fault/fault.h"

namespace memtis {

class MigrationBudget {
 public:
  MigrationBudget(uint64_t pages_per_ms, uint64_t burst_pages)
      : rate_per_ms_(pages_per_ms), burst_(burst_pages), tokens_(burst_pages) {}

  // Fault injector hosting the kBudgetStarve site. Not owned; nullptr (the
  // default) disables starvation spikes.
  void AttachFaults(FaultInjector* faults) { faults_ = faults; }

  // Attempts to consume `pages` tokens at virtual time `now_ns`.
  bool Consume(uint64_t now_ns, uint64_t pages) {
    if (faults_ != nullptr &&
        faults_->ShouldInject(FaultSite::kBudgetStarve, now_ns)) {
      // Starvation spike: deny as if tokens were exhausted. Neither the
      // balance nor the refill clock moves, so the audited ledger invariant
      // (burst + credited - consumed == tokens) is untouched.
      return false;
    }
    Refill(now_ns);
    if (tokens_ < pages) {
      return false;
    }
    tokens_ -= pages;
    consumed_pages_ += pages;
    return true;
  }

  uint64_t tokens(uint64_t now_ns) {
    Refill(now_ns);
    return tokens_;
  }

  // --- Audit introspection (all side-effect free) -----------------------------
  //
  // The ledger invariant certified by src/audit/: starting balance (the burst)
  // plus every credited refill minus every consumed token equals the current
  // balance. `tokens_raw` deliberately does NOT refill: reading the bucket
  // during an audit must not change refill rounding, or auditing would perturb
  // the simulation.
  uint64_t tokens_raw() const { return tokens_; }
  uint64_t burst() const { return burst_; }
  uint64_t rate_per_ms() const { return rate_per_ms_; }
  uint64_t consumed_pages() const { return consumed_pages_; }
  uint64_t credited_pages() const { return credited_pages_; }
  uint64_t last_refill_ns() const { return last_refill_ns_; }

  // Test-only fault injection: skews the balance without touching the ledger,
  // so the auditor's ledger-balance check fires.
  void TestOnlyAdjustTokens(int64_t delta) {
    tokens_ = static_cast<uint64_t>(static_cast<int64_t>(tokens_) + delta);
  }

  // Checkpointing: rate/burst are configuration (cross-checked on load); the
  // bucket balance, refill clock, and audit ledger restore verbatim.
  void VisitState(StateCodec& c) {
    c.Check("rate_per_ms", rate_per_ms_);
    c.Check("burst", burst_);
    c.Field("tokens", tokens_);
    c.Field("last_refill_ns", last_refill_ns_);
    c.Field("consumed_pages", consumed_pages_);
    c.Field("credited_pages", credited_pages_);
  }

 private:
  void Refill(uint64_t now_ns) {
    if (now_ns <= last_refill_ns_) {
      return;
    }
    const uint64_t earned = (now_ns - last_refill_ns_) * rate_per_ms_ / 1'000'000;
    if (earned > 0) {
      const uint64_t target = std::min(burst_, tokens_ + earned);
      if (target > tokens_) {
        credited_pages_ += target - tokens_;
        tokens_ = target;
      }
      last_refill_ns_ = now_ns;
    }
  }

  uint64_t rate_per_ms_;
  uint64_t burst_;
  uint64_t tokens_;
  uint64_t last_refill_ns_ = 0;
  uint64_t consumed_pages_ = 0;
  uint64_t credited_pages_ = 0;
  FaultInjector* faults_ = nullptr;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_MIGRATION_BUDGET_H_
