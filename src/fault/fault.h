// Deterministic fault-injection plane.
//
// A FaultPlan names the failure regimes a run must survive (allocation
// failure, aborted migrations and page exchanges, PEBS sample loss,
// migration-budget starvation, tier capacity shrink) as per-site Bernoulli
// probabilities with optional
// virtual-time windows and injection caps. A FaultInjector evaluates the plan
// at the injection points threaded through MemorySystem, PebsSampler,
// MigrationBudget, and the Engine tick loop.
//
// Determinism contract:
//   - The injector carries its own xoshiro stream seeded from
//     (plan.seed, run seed), so two runs with the same seed and plan inject
//     the byte-identical fault sequence — replays are exact.
//   - A disabled injector (no site active) never consumes randomness and
//     never branches simulation state, so a fault-free run with the fault
//     plane compiled in is byte-identical to a build without it
//     (tests/golden_metrics_test.cc holds this to byte-identical JSON).
//   - Sites with probability 0, out-of-window rolls, and capped sites return
//     false without touching the RNG, so enabling one site never perturbs
//     another site's stream.

#ifndef MEMTIS_SIM_SRC_FAULT_FAULT_H_
#define MEMTIS_SIM_SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/rng.h"

namespace memtis {

// Every injection point in the simulator. Keep FaultSiteName in sync.
enum class FaultSite : int {
  // MemorySystem::AllocFrame: the preferred-tier buddy allocation fails (the
  // fallback tier is never injected, so sized machines degrade instead of
  // aborting — the fault models transient watermark/fragmentation pressure).
  kAllocFail = 0,
  // MemorySystem::Migrate: the copy aborts after the destination frame was
  // reserved; the frame is returned and the page is untouched (see the
  // rollback contract in DESIGN.md).
  kMigrateAbort,
  // PebsSampler::OnEvent: the sample buffer overflows and the record is
  // dropped before delivery (counted in PebsStats::dropped).
  kSampleDrop,
  // MigrationBudget::Consume: the request is denied as if tokens were
  // exhausted; the token ledger is not touched.
  kBudgetStarve,
  // Engine tick: the fast tier hot-shrinks by pinning free frames
  // (FaultPlan::tier_shrink_step of the tier per injection, cumulative cap
  // FaultPlan::tier_shrink_cap).
  kTierShrink,
  // MemorySystem::ExchangePages: the two-page swap aborts after both sides
  // passed the admission gates but before any state moved; both pages stay at
  // their original tier/frame with no TLB shootdown (two-sided rollback, see
  // DESIGN.md "exchange contract").
  kExchangeAbort,
};

inline constexpr int kNumFaultSites = 6;

// Stable CLI/JSON name of a site ("alloc-fail", "migrate-abort", ...).
std::string_view FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

struct FaultSiteSpec {
  double probability = 0.0;  // Bernoulli probability per decision point
  uint64_t window_start_ns = 0;
  uint64_t window_end_ns = UINT64_MAX;  // exclusive
  uint64_t max_injections = 0;          // 0 = unlimited

  bool active() const { return probability > 0.0; }
  bool InWindow(uint64_t now_ns) const {
    return now_ns >= window_start_ns && now_ns < window_end_ns;
  }
};

// The schedule: which sites fire, how often, when, and with what magnitude.
struct FaultPlan {
  std::array<FaultSiteSpec, kNumFaultSites> sites;
  // Salt mixed with the run seed into the injector's RNG; lets experiments
  // draw independent fault sequences without touching the workload seed.
  uint64_t seed = 0;
  // Tier hot-shrink magnitude: fraction of the fast tier pinned per
  // injection, and the cumulative cap as a fraction of the tier.
  double tier_shrink_step = 0.02;
  double tier_shrink_cap = 0.25;

  bool enabled() const {
    for (const FaultSiteSpec& s : sites) {
      if (s.active()) {
        return true;
      }
    }
    return false;
  }

  FaultSiteSpec& site(FaultSite s) { return sites[static_cast<int>(s)]; }
  const FaultSiteSpec& site(FaultSite s) const {
    return sites[static_cast<int>(s)];
  }

  // Dense all-site preset used by the storm stress tests and MEMTIS_FAULTS.
  static FaultPlan Storm();

  // Parses a spec string into `out`. Grammar (comma-separated entries):
  //   none | storm                       presets (entries after may override)
  //   <site>=<p>[@<start>-<end>][/<max>] per-site probability, ns window, cap
  //   seed=<n>                           fault-stream salt
  //   shrink-step=<f> | shrink-cap=<f>   tier-shrink magnitude
  // e.g. "alloc-fail=0.05,migrate-abort=0.1@1000000-9000000/25,seed=7".
  // Returns false (with a message in *error) on malformed input.
  static bool Parse(const std::string& spec, FaultPlan* out, std::string* error);

  // Canonical spec string: Parse(ToSpec()) reproduces the plan exactly. Used
  // by the stress tests' one-line reproducers. "none" when disabled.
  std::string ToSpec() const;
};

// Injection counters, copied into Metrics::faults at run end.
struct FaultStats {
  uint64_t injected[kNumFaultSites] = {};
  // Decision points that were eligible (in window, below cap, p > 0).
  uint64_t rolls[kNumFaultSites] = {};

  uint64_t by(FaultSite site) const {
    return injected[static_cast<int>(site)];
  }
  uint64_t total_injected() const {
    uint64_t total = 0;
    for (const uint64_t n : injected) {
      total += n;
    }
    return total;
  }

  // JSON field list (src/common/json_fields.h): the derived totals, then
  // {"rolls","injected"} per site under the site's name.
  template <class V>
  void VisitFields(V& v) {
    v.Derived("faults_injected", [this] { return total_injected(); });
    v.Derived("migrations_aborted",
              [this] { return by(FaultSite::kMigrateAbort); });
    v.Derived("samples_dropped", [this] { return by(FaultSite::kSampleDrop); });
    // The first five sites predate the schema-stable golden files and are
    // always present; sites added later (exchange-abort) are written only
    // when touched, so documents from runs that never exercise them are
    // unchanged.
    constexpr int kLegacySites = 5;
    for (int i = 0; i < kNumFaultSites; ++i) {
      if (v.WriteIf(i < kLegacySites || rolls[i] != 0 || injected[i] != 0)) {
        v.Object(FaultSiteName(static_cast<FaultSite>(i)), [&](auto& site) {
          site.Field("rolls", rolls[i]);
          site.Field("injected", injected[i]);
        });
      }
    }
  }
};

// Evaluates a FaultPlan at the injection sites. One injector per run, owned
// by the Engine and attached (never owned) to the components that host sites.
class FaultInjector {
 public:
  FaultInjector() = default;  // disabled: every ShouldInject is false
  FaultInjector(const FaultPlan& plan, uint64_t run_seed);

  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // One deterministic Bernoulli decision at `site`; true means the caller
  // must degrade (fail the allocation, abort the copy, drop the sample...).
  // Counts the injection when it fires. Inactive sites return false without
  // consuming randomness.
  bool ShouldInject(FaultSite site, uint64_t now_ns) {
    if (!enabled_) {
      return false;
    }
    return Roll(site, now_ns);
  }

  // Checkpointing: the plan and enabled flag are configuration (rebuilt from
  // the job spec); the RNG position and injection/roll counters are the
  // mutable stream state that must resume exactly.
  void VisitState(StateCodec& c) {
    c.Record("rng", rng_);
    c.Record("stats", stats_);
  }

 private:
  bool Roll(FaultSite site, uint64_t now_ns);

  FaultPlan plan_;
  Rng rng_{0};
  FaultStats stats_;
  bool enabled_ = false;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_FAULT_FAULT_H_
