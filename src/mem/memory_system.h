// MemorySystem: the simulated two-tier physical memory plus the virtual
// address-space bookkeeping on top of it (regions, page table, THP
// allocation, migration, huge-page split/collapse).
//
// This is the substrate every tiering policy operates on. It deliberately
// models the mechanisms the paper's evaluation depends on:
//   - real order-9 buddy allocations for huge pages (fragmentation exists),
//   - migration = frame copy between tiers + TLB shootdown,
//   - huge-page split frees never-written (all-zero) subpages, which is where
//     THP memory-bloat reduction comes from (paper §4.3.3, Btree analysis),
//   - demand faults for subpages unmapped by a split and touched later.

#ifndef MEMTIS_SIM_SRC_MEM_MEMORY_SYSTEM_H_
#define MEMTIS_SIM_SRC_MEM_MEMORY_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/mem/page.h"
#include "src/mem/tier.h"
#include "src/snapshot/state_codec.h"
#include "src/mem/tlb.h"
#include "src/mem/types.h"

namespace memtis {


struct MemoryConfig {
  uint64_t fast_frames = 0;      // 4 KiB frames in the fast tier
  uint64_t capacity_frames = 0;  // 4 KiB frames in the capacity tier
  TierLatency fast_latency = kDramLatency;
  TierLatency capacity_latency = kNvmLatency;
  // Physical fragmentation at start-up: this fraction of each tier's huge
  // blocks gets one permanently-pinned 4 KiB frame, so THP allocations can
  // fail there (long-lived machines are never unfragmented — this is where
  // Table 2's RHP < 100% comes from).
  double fragmentation = 0.0;
  uint64_t fragmentation_seed = 12345;
};

struct AllocOptions {
  TierId preferred = TierId::kFast;
  bool allow_other_tier = true;  // fall back to the other tier when full
  bool use_thp = true;           // huge pages for 2 MiB-aligned spans
};

struct MigrationStats {
  uint64_t promoted_base = 0;   // base pages moved capacity -> fast
  uint64_t promoted_huge = 0;   // huge pages moved capacity -> fast
  uint64_t demoted_base = 0;
  uint64_t demoted_huge = 0;
  uint64_t failed_migrations = 0;   // destination frame unavailable
  uint64_t aborted_migrations = 0;  // injected mid-copy abort, rolled back
  uint64_t splits = 0;
  uint64_t collapses = 0;
  uint64_t freed_zero_subpages = 0;  // bloat reclaimed by splits
  uint64_t demand_faults = 0;        // split-freed subpages touched later
  uint64_t exchanges = 0;            // successful two-page swaps (ExchangePages)
  uint64_t exchanged_huge = 0;       // subset of `exchanges` that swapped huge pages
  uint64_t failed_exchanges = 0;     // precondition, quota, or budget denials
  uint64_t aborted_exchanges = 0;    // injected mid-swap abort, both sides rolled back

  uint64_t promoted_4k() const { return promoted_base + promoted_huge * kSubpagesPerHuge; }
  uint64_t demoted_4k() const { return demoted_base + demoted_huge * kSubpagesPerHuge; }
  uint64_t migrated_4k() const { return promoted_4k() + demoted_4k(); }
  // 4 KiB pages repositioned by exchanges: each swap moves both sides.
  uint64_t exchanged_4k() const {
    return 2 * ((exchanges - exchanged_huge) + exchanged_huge * kSubpagesPerHuge);
  }

  // JSON field list (src/common/json_fields.h).
  template <class V>
  void VisitFields(V& v) {
    v.Field("promoted_base", promoted_base);
    v.Field("promoted_huge", promoted_huge);
    v.Field("demoted_base", demoted_base);
    v.Field("demoted_huge", demoted_huge);
    v.Field("failed_migrations", failed_migrations);
    v.Field("aborted_migrations", aborted_migrations);
    v.Field("splits", splits);
    v.Field("collapses", collapses);
    v.Field("freed_zero_subpages", freed_zero_subpages);
    v.Field("demand_faults", demand_faults);
    // Exchange counters postdate the schema-stable goldens: omitted while all
    // zero so documents from exchange-free runs are byte-identical.
    if (v.WriteIf(exchanges != 0 || failed_exchanges != 0 ||
                  aborted_exchanges != 0)) {
      v.Field("exchanges", exchanges);
      v.Field("exchanged_huge", exchanged_huge);
      v.Field("failed_exchanges", failed_exchanges);
      v.Field("aborted_exchanges", aborted_exchanges);
      v.Derived("exchanged_4k", [this] { return exchanged_4k(); });
    }
    v.Derived("promoted_4k", [this] { return promoted_4k(); });
    v.Derived("demoted_4k", [this] { return demoted_4k(); });
  }
};

// Per-tenant promotion-bandwidth token bucket, arbitrating the machine's
// migration budget across tenants by weight. Integer scheme identical to
// MigrationBudget (src/sim/migration_budget.h) so the audited ledger invariant
// (burst + credited - consumed == tokens <= burst) carries over. Inactive by
// default: a bucket that was never configured admits every promotion.
struct TenantBudget {
  bool active = false;
  uint64_t rate_per_ms = 0;
  uint64_t burst = 0;
  uint64_t tokens = 0;
  uint64_t last_refill_ns = 0;
  uint64_t consumed_pages = 0;
  uint64_t credited_pages = 0;

  void Configure(uint64_t rate, uint64_t burst_pages) {
    active = true;
    rate_per_ms = rate;
    burst = burst_pages;
    tokens = burst_pages;
  }

  bool Consume(uint64_t now_ns, uint64_t pages) {
    if (!active) {
      return true;
    }
    Refill(now_ns);
    if (tokens < pages) {
      return false;
    }
    tokens -= pages;
    consumed_pages += pages;
    return true;
  }

  void Refill(uint64_t now_ns) {
    if (now_ns <= last_refill_ns) {
      return;
    }
    const uint64_t earned = (now_ns - last_refill_ns) * rate_per_ms / 1'000'000;
    if (earned > 0) {
      const uint64_t target = std::min(burst, tokens + earned);
      if (target > tokens) {
        credited_pages += target - tokens;
        tokens = target;
      }
      last_refill_ns = now_ns;
    }
  }

  template <class V>
  void VisitFields(V& v) {
    v.Field("active", active);
    v.Field("rate_per_ms", rate_per_ms);
    v.Field("burst", burst);
    v.Field("tokens", tokens);
    v.Field("last_refill_ns", last_refill_ns);
    v.Field("consumed_pages", consumed_pages);
    v.Field("credited_pages", credited_pages);
  }
};

// Per-tenant frame accounting and fast-tier quota state. The audit layer
// (src/audit/, "tenant-conservation") certifies that these counters sum to the
// global per-tier counters, match a from-scratch recount, and that fast usage
// never exceeds max(quota_frames, borrow_frames) — the borrow window opened by
// SetTenantFastQuota lowering a quota below current usage (or by a
// capacity-exhausted allocation falling back to the fast tier) and ratcheted
// shut as the tenant's fast usage decreases.
struct TenantFrameStats {
  uint64_t mapped_4k_tier[kNumTiers] = {0, 0};
  uint64_t quota_frames = UINT64_MAX;  // fast-tier cap in 4 KiB frames
  uint64_t borrow_frames = 0;          // explicit borrow window (0 = closed)
  uint64_t quota_denied_allocs = 0;      // fast placements redirected by quota
  uint64_t quota_denied_promotions = 0;  // promotions denied (steal impossible)
  uint64_t quota_steals = 0;  // promotions satisfied by self-demotion first
  uint64_t budget_denied_promotions = 0;  // weighted-share bucket denials
  TenantBudget budget;

  uint64_t fast_pages() const {
    return mapped_4k_tier[static_cast<int>(TierId::kFast)];
  }

  template <class V>
  void VisitFields(V& v) {
    v.Array("mapped_4k_tier", mapped_4k_tier);
    v.Field("quota_frames", quota_frames);
    v.Field("borrow_frames", borrow_frames);
    v.Field("quota_denied_allocs", quota_denied_allocs);
    v.Field("quota_denied_promotions", quota_denied_promotions);
    v.Field("quota_steals", quota_steals);
    v.Field("budget_denied_promotions", budget_denied_promotions);
    v.Record("budget", budget);
  }
  uint64_t effective_fast_limit() const {
    return std::max(quota_frames, borrow_frames);
  }
};

// One audit point's ground truth, rebuilt from first principles (page
// metadata, hot arrays, page table, buddy free lists) by one walk over the
// page slots. It never reads the counters it is checked against, and it is
// never carried from one audit point to the next.
struct MemCensus {
  enum HugeFault : uint8_t {  // huge-page accounting faults of one page
    kNoMeta = 1,          // huge page without HugePageMeta
    kUnaligned = 2,       // huge page at a vpn that is not huge-aligned
    kSubpageSum = 4,      // subpage counters sum past the page counter
    kNonzeroSummary = 8,  // nonzero_subpages disagrees with the counters
    kBaseWithMeta = 16,   // base page carrying HugePageMeta
  };
  struct HugeFaultPage {
    PageIndex index;
    uint8_t faults;        // HugeFault bits
    uint64_t subpage_sum;  // over subpage_count (0 without meta)
    uint32_t nonzero;      // nonzero subpage_count entries
  };
  static constexpr size_t kMaxHugeFaultPages = 4;  // no page named past 4 faults

  // The first per-slot fault CheckConsistency reports; empty when none.
  std::string slot_error;
  // Over every live slot.
  uint64_t live_pages = 0;
  uint64_t mapped_4k = 0;
  uint64_t mapped_4k_tier[kNumTiers] = {0, 0};
  uint64_t live_huge_pages = 0;
  uint64_t written_subpages = 0;
  // Over the first live_page_count() live slots, as ForEachLivePage visits.
  std::vector<uint64_t> tenant_mapped_4k;  // [tenant * kNumTiers + tier]
  std::vector<PageIndex> unregistered_owner;
  std::vector<HugeFaultPage> huge_faults;  // at most kMaxHugeFaultPages
  // Each tier's BuddyAllocator::CheckConsistency message; empty when sound.
  std::string buddy_error[kNumTiers];

  uint64_t bloat_pages() const {
    return live_huge_pages * kSubpagesPerHuge - written_subpages;
  }
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemoryConfig& config);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  MemoryTier& tier(TierId id) { return tiers_[static_cast<int>(id)]; }
  const MemoryTier& tier(TierId id) const { return tiers_[static_cast<int>(id)]; }

  // Optional TLB to shoot down on migration/split/unmap. Not owned.
  void AttachTlb(Tlb* tlb) { tlb_ = tlb; }
  // Clock source for PageInfo::alloc_time_ns. Not owned.
  void AttachClock(const uint64_t* now_ns) { now_ns_ = now_ns; }
  // Fault injector hosting the kAllocFail / kMigrateAbort sites. Not owned;
  // nullptr (the default) means those sites never fire.
  void AttachFaults(FaultInjector* faults) { faults_ = faults; }

  // --- Tenants ---------------------------------------------------------------
  //
  // The co-location plane (src/tenant/) registers N tenants; every region (and
  // the pages backing it) is owned by the tenant that was current when it was
  // allocated. Quotas are enforced here — at AllocFrame and Migrate time — so
  // no policy can promote a tenant past its fast-tier share, and the migration
  // budget is arbitrated per tenant by the optional TenantBudget buckets. A
  // run that never calls any of these behaves exactly as before: everything
  // belongs to kDefaultTenant, whose quota is unlimited and whose bucket is
  // inactive.

  // Sets the tenant that owns subsequently allocated regions (registering it
  // if needed). The scheduler calls this before each tenant's batch.
  void SetCurrentTenant(TenantId tenant) {
    EnsureTenant(tenant);
    current_tenant_ = tenant;
  }

  // Registered tenants (ids 0 .. tenant_count()-1). Always >= 1: the default
  // tenant exists from construction.
  TenantId tenant_count() const { return static_cast<TenantId>(tenants_.size()); }

  // Caps `tenant`'s fast-tier usage at `frames` 4 KiB frames. Lowering the
  // quota below current usage opens a borrow window at the current usage:
  // the audit invariant tolerates the existing overage, but new fast growth is
  // denied and the window ratchets shut as the tenant's fast pages drain.
  void SetTenantFastQuota(TenantId tenant, uint64_t frames) {
    EnsureTenant(tenant);
    TenantFrameStats& t = tenants_[tenant];
    t.quota_frames = frames;
    t.borrow_frames = t.fast_pages() > frames ? t.fast_pages() : 0;
  }

  // Arms `tenant`'s promotion-bandwidth bucket (its weighted share of the
  // machine's migration budget). Promotions of the tenant's pages draw from it
  // in addition to the policy's global budget; demotions are exempt.
  void SetTenantPromotionBudget(TenantId tenant, uint64_t rate_per_ms,
                                uint64_t burst_pages) {
    EnsureTenant(tenant);
    tenants_[tenant].budget.Configure(rate_per_ms, burst_pages);
  }

  const TenantFrameStats& tenant_stats(TenantId tenant) const {
    return tenants_[tenant];
  }
  uint64_t tenant_mapped_4k(TenantId tenant, TierId tier) const {
    return tenants_[tenant].mapped_4k_tier[static_cast<int>(tier)];
  }

  // Start addresses of the live regions owned by `tenant`, in address order.
  // The scheduler frees these (via the engine, so policies observe the frees)
  // when a tenant departs mid-run.
  std::vector<Vaddr> TenantRegionStarts(TenantId tenant) const;

  // --- Regions ---------------------------------------------------------------

  // Allocates a region of `bytes` (rounded up to a huge-page multiple so THP
  // layout is deterministic) and eagerly populates pages per `options`.
  // Returns the start address. Aborts if physical memory is exhausted in both
  // tiers (the simulated machine is sized by the experiment).
  Vaddr AllocateRegion(uint64_t bytes, const AllocOptions& options);

  // Frees a region previously returned by AllocateRegion.
  void FreeRegion(Vaddr start);

  // True if addr lies within a live region (mapped or demand-zero).
  bool InRegion(Vaddr addr) const;

  // Extent (start vpn, num pages) of the region containing addr, if any.
  std::optional<std::pair<Vpn, uint64_t>> RegionAt(Vaddr addr) const;

  // --- Lookup ----------------------------------------------------------------

  PageIndex Lookup(Vpn vpn) const {
    if (vpn >= page_table_.size()) {
      return kInvalidPage;
    }
    return page_table_[vpn];
  }

  PageInfo& page(PageIndex index) { return pages_[index]; }
  const PageInfo& page(PageIndex index) const { return pages_[index]; }

  // --- Structure-of-arrays hot metadata ---------------------------------------
  //
  // The fields the per-access pipeline touches (kind -> TLB, tier -> latency,
  // frame, access counter) live in parallel arrays indexed by PageIndex (see
  // PageHotArrays); PageInfo's accessors alias the same storage. The direct
  // index accessors below are the hot-path entry points — they touch one
  // byte-dense array instead of a PageInfo cache line.
  PageKind kind_of(PageIndex index) const { return hot_.kind[index]; }
  TierId tier_of(PageIndex index) const { return hot_.tier[index]; }
  // Audit introspection: the arrays themselves (size == page_slots()).
  const PageHotArrays& hot_arrays() const { return hot_; }
  // Mutable view for bulk scans (e.g. the cooling pass halving every access
  // counter): no new capability — PageInfo's accessors already hand out
  // mutable references to the same storage — just no per-page indirection.
  PageHotArrays& hot_arrays() { return hot_; }

  // Resolves a PageRef; nullptr if the page was freed/split since.
  PageInfo* Deref(PageRef ref);

  PageIndex IndexOf(const PageInfo& p) const {
    return static_cast<PageIndex>(&p - pages_.data());
  }

  // Allocates a base page for a region vpn that is currently unmapped (only
  // possible after a split freed a zero subpage). Returns the new page.
  PageIndex DemandFault(Vpn vpn, const AllocOptions& options);

  // --- Migration / page-size conversion ---------------------------------------

  // Moves a page to `dst`. Returns false (and counts a failed migration) when
  // no destination frame of the required order is available.
  bool Migrate(PageIndex index, TierId dst);

  // Atomically swaps a capacity-tier page (`hot`) with a fast-tier page
  // (`cold`) of the same kind: both mappings change, no frame is allocated or
  // freed, and both vpn spans are shot down. This is AutoTiering's direct
  // page exchange — the path that removes the free-frame-reservation
  // bottleneck when the fast tier is full.
  //
  // The swap is fast-tier-neutral, so it bypasses the steal-or-deny promotion
  // path; ownership still matters: a cross-tenant exchange grows the hot
  // page's owner by n fast pages and must fit under that tenant's quota
  // (no steal — the cold page IS the eviction), and the hot side draws the
  // owner's promotion-budget tokens exactly like a promotion. Returns false
  // (counting failed_exchanges) on precondition/quota/budget denial, or
  // (counting aborted_exchanges) when the kExchangeAbort fault site fires —
  // in every failure case both pages keep their original tier/frame/mapping
  // and no shootdown is issued (two-sided rollback).
  bool ExchangePages(PageIndex hot, PageIndex cold);

  // Splits a huge page into base pages. `subpage_tier(j)` picks the
  // destination tier of subpage j (with fallback to the other tier when
  // full). Never-written subpages are unmapped and their backing freed.
  // Returns the number of base pages created. The huge PageInfo dies.
  uint64_t SplitHugePage(PageIndex index,
                         const std::function<TierId(uint32_t)>& subpage_tier);

  // Collapses 512 live base pages at a huge-aligned vpn into one huge page in
  // `tier`. Fails (returns false) unless all 512 are live base pages and a
  // huge frame is available.
  bool CollapseToHuge(Vpn huge_vpn, TierId tier);

  // Hot-shrinks a tier by pinning up to `frames` free 4 KiB frames (as if the
  // hardware or another tenant claimed them). Pins are permanent, accounted
  // like start-up fragmentation pins, and invisible to rss_pages(). Returns
  // the number actually pinned (less when the tier has fewer free frames).
  uint64_t ShrinkTier(TierId id, uint64_t frames);

  // --- Iteration / accounting -------------------------------------------------

  // Visits every live page. `fn` must not create or free pages: the loop
  // stops after visiting live_page_count() pages, so mutating the page
  // population mid-scan would skip (or double-visit) pages. All current
  // callers are scans that only read or update per-page state in place.
  template <typename Fn>  // Fn(PageIndex, PageInfo&)
  void ForEachLivePage(Fn&& fn) {
    uint64_t remaining = live_pages_;
    const PageIndex slots = static_cast<PageIndex>(pages_.size());
    for (PageIndex i = 0; i < slots && remaining > 0; ++i) {
      if (pages_[i].live) {
        --remaining;
        fn(i, pages_[i]);
      }
    }
  }

  // Slot-based access for resumable scan cursors (hint-fault arming, clock
  // hands). Slots may be dead; LivePageAt returns nullptr for those.
  PageIndex page_slots() const { return static_cast<PageIndex>(pages_.size()); }
  PageInfo* LivePageAt(PageIndex i) { return pages_[i].live ? &pages_[i] : nullptr; }

  uint64_t live_page_count() const { return live_pages_; }
  uint64_t mapped_4k_pages() const { return mapped_4k_; }

  // Records a ground-truth subpage touch on a huge page (the kernel knows
  // written pages exactly; splits free never-written subpages). All
  // accessed/written bit mutations MUST go through here so the incremental
  // written-subpage counter stays consistent with the bitsets.
  void NoteSubpageAccess(PageInfo& page, uint64_t subpage, bool is_write) {
    page.huge->accessed.set(subpage);
    if (is_write && !page.huge->written.test(subpage)) {
      page.huge->written.set(subpage);
      ++written_subpages_;
    }
  }

  // --- Incremental accounting -------------------------------------------------
  //
  // Maintained at MapPage/UnmapAndFree/Migrate/SplitHugePage/CollapseToHuge
  // so the per-snapshot metrics (huge_page_ratio, bloat_pages, per-tier
  // mapped-4k) are O(1) instead of O(page slots). Each has a MemCensus field
  // recomputed from the live page metadata; the audit layer
  // (src/audit/audit.cc, "incremental-counters") cross-checks them every tick.

  uint64_t live_huge_pages() const { return huge_pages_; }
  uint64_t written_subpages() const { return written_subpages_; }
  uint64_t mapped_4k_in_tier(TierId id) const {
    return mapped_4k_tier_[static_cast<int>(id)];
  }

  // HugePageMeta pool introspection (metas are recycled across
  // split/collapse churn instead of round-tripping through the heap).
  // Conservation: allocated == pooled + live huge pages.
  uint64_t huge_meta_allocated() const { return huge_meta_allocated_; }
  uint64_t huge_meta_pooled() const { return huge_meta_pool_.size(); }

  // --- Audit introspection ----------------------------------------------------

  // Frames permanently pinned by start-up fragmentation, per tier / total.
  uint64_t pinned_frames(TierId id) const {
    return pinned_per_tier_[static_cast<int>(id)];
  }
  uint64_t pinned_frames_total() const { return pinned_frames_; }

  // One walk over every page slot plus both buddy audits (O(page slots +
  // frames); audit/diagnostic use only — hot paths read the counters).
  MemCensus TakeCensus() const;

  // Resident set size in 4 KiB frames (all app-allocated frames, both tiers;
  // excludes frames pinned by start-up fragmentation).
  uint64_t rss_pages() const {
    return tiers_[0].used_frames() + tiers_[1].used_frames() - pinned_frames_;
  }

  // 4 KiB pages mapped in the fast tier.
  uint64_t fast_tier_pages() const { return tiers_[0].used_frames(); }

  // Never-written subpages currently held inside live huge pages (THP bloat).
  uint64_t bloat_pages() const {
    return huge_pages_ * kSubpagesPerHuge - written_subpages_;
  }

  // Clears the ground-truth per-subpage accessed bits (not the written bits).
  // Used by analyses that measure utilisation over a specific phase.
  void ClearAccessedBits();

  // Ratio of mapped memory backed by huge pages (Table 2's RHP).
  double huge_page_ratio() const;

  const MigrationStats& migration_stats() const { return migration_stats_; }

  // Consistency audit for tests and the runtime auditor: page table <-> pages
  // <-> allocators agree, read from `census` (by default a fresh TakeCensus()).
  // `error` names the first mismatch (unchanged when consistent).
  bool CheckConsistency(std::string* error = nullptr) const {
    return CheckConsistency(TakeCensus(), error);
  }
  bool CheckConsistency(const MemCensus& census, std::string* error) const;

  // --- Checkpointing (src/snapshot/) ------------------------------------------
  //
  // Lists every mutable field (src/snapshot/state_codec.h) — page slots
  // (live metadata + hot SoA twin + per-slot generations, so stale PageRefs
  // stay stale), the buddy allocators' free-list order, the page table,
  // region maps, tenant ownership/quota/borrow ratchets, and the migration
  // ledger. A load goes into a freshly constructed MemorySystem of the same
  // MemoryConfig, rebuilds the derived structure (hot/self back-references,
  // pooled HugePageMeta buffers), and fails on any configuration mismatch
  // and on any tier, kind, slot id, page-table entry, frame or tenant id out
  // of range. Attached pointers (TLB, clock, faults) are not stored; the
  // owner re-attaches them.
  void VisitState(StateCodec& c);

 private:
  struct Region {
    Vpn start_vpn = 0;
    uint64_t num_pages = 0;
    TenantId tenant = kDefaultTenant;  // owner; stamped onto every page mapped

    template <class V>
    void VisitFields(V& v) {
      v.Field("start_vpn", start_vpn);
      v.Field("num_pages", num_pages);
      v.Field("tenant", tenant);
    }
  };

  // After a load: false when a restored index would reach past its table.
  bool LoadedIndicesInRange() const;

  uint64_t now() const { return now_ns_ != nullptr ? *now_ns_ : 0; }

  PageIndex NewPageSlot();
  void ReleasePageSlot(PageIndex index);

  // HugePageMeta pool: Acquire returns a zeroed meta (recycled if possible),
  // Recycle returns one for reuse. Every huge-page death must recycle.
  // zeroed=false skips re-zeroing a pooled buffer — only for callers that
  // overwrite every field before the meta becomes visible (collapse).
  std::unique_ptr<HugePageMeta> AcquireHugeMeta(bool zeroed = true);
  void RecycleHugeMeta(std::unique_ptr<HugePageMeta> meta);
  void ReleaseHugeState(PageInfo& p);

  // Allocates one page of `kind` honoring tier preference/fallback; returns
  // nullopt if no tier can hold it. A preferred-fast attempt that would push
  // `tenant` past its quota is redirected to the capacity tier (the
  // capacity-exhausted fallback INTO fast is still allowed and opens a borrow
  // window — denying it would OOM a machine with free memory).
  std::optional<std::pair<TierId, FrameId>> AllocFrame(PageKind kind,
                                                       const AllocOptions& options,
                                                       TenantId tenant);

  void MapPage(PageIndex index, Vpn vpn, PageKind kind, TierId tier, FrameId frame,
               TenantId tenant);
  void UnmapAndFree(PageIndex index);

  void EnsurePageTable(Vpn end_vpn);

  // Registers tenant ids 0..tenant (idempotent).
  void EnsureTenant(TenantId tenant) {
    if (tenant >= tenants_.size()) {
      tenants_.resize(static_cast<size_t>(tenant) + 1);
    }
  }

  // True when `tenant` may grow its fast-tier usage by `frames` pages.
  bool FastQuotaAllows(TenantId tenant, uint64_t frames) const {
    const TenantFrameStats& t = tenants_[tenant];
    const uint64_t limit = t.effective_fast_limit();
    return t.fast_pages() <= limit && frames <= limit - t.fast_pages();
  }

  // Demotes `tenant`'s coldest fast pages until `frames` fast frames fit under
  // the quota (deterministic victim order: min hotness, then lowest slot).
  // Returns false when not enough same-tenant victims exist.
  bool StealForPromotion(TenantId tenant, uint64_t frames);

  // Borrow-window maintenance, called after a tenant's fast usage changes.
  void TenantBorrowExtend(TenantId tenant);   // fast grew past quota (fallback)
  void TenantBorrowRatchet(TenantId tenant);  // fast shrank: tighten/close

  // The region containing vpn (the map key at or below vpn whose extent
  // covers it), or nullptr.
  const Region* RegionContaining(Vpn vpn) const;

  MemoryTier tiers_[kNumTiers];
  Tlb* tlb_ = nullptr;
  const uint64_t* now_ns_ = nullptr;
  FaultInjector* faults_ = nullptr;

  std::vector<PageInfo> pages_;
  PageHotArrays hot_;  // SoA twin of pages_, resized in lockstep (NewPageSlot)
  std::vector<PageIndex> free_slots_;
  std::vector<PageIndex> page_table_;  // vpn -> PageIndex
  uint64_t live_pages_ = 0;
  uint64_t mapped_4k_ = 0;

  // Incremental counters (see "Incremental accounting" above).
  uint64_t huge_pages_ = 0;                      // live huge pages
  uint64_t mapped_4k_tier_[kNumTiers] = {0, 0};  // mapped 4k per tier
  uint64_t written_subpages_ = 0;  // set written bits over live huge pages

  // Recycled HugePageMeta buffers + lifetime allocation count.
  std::vector<std::unique_ptr<HugePageMeta>> huge_meta_pool_;
  uint64_t huge_meta_allocated_ = 0;

  uint64_t pinned_frames_ = 0;  // start-up fragmentation pins (total)
  uint64_t pinned_per_tier_[kNumTiers] = {0, 0};

  std::map<Vpn, Region> regions_;         // live regions by start vpn
  std::map<Vpn, uint64_t> free_vpn_ranges_;  // start vpn -> num pages
  Vpn vpn_bump_ = 0;                      // next fresh vpn when free list empty
  // Upper bound on the largest free-range length: raised when FreeRegion
  // inserts a range, re-tightened when a first-fit walk comes up empty.
  // AllocateRegion skips the O(ranges) walk entirely when the request
  // provably cannot fit — the walk's outcome is unchanged otherwise, so
  // first-fit placement stays byte-identical.
  uint64_t max_free_range_bound_ = 0;

  MigrationStats migration_stats_;

  // Per-tenant accounting; index = TenantId. Slot 0 (the default tenant)
  // always exists, so legacy single-workload runs never branch differently.
  std::vector<TenantFrameStats> tenants_ = std::vector<TenantFrameStats>(1);
  TenantId current_tenant_ = kDefaultTenant;
  // Re-entrancy guard: StealForPromotion demotes via Migrate; those inner
  // demotions must not recurse into another steal or draw tenant budget.
  bool in_steal_ = false;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_MEMORY_SYSTEM_H_
