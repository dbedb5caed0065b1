#include "src/mem/memory_system.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

MemorySystem::MemorySystem(const MemoryConfig& config)
    : tiers_{MemoryTier(TierId::kFast, "fast", config.fast_frames, config.fast_latency),
             MemoryTier(TierId::kCapacity, "capacity", config.capacity_frames,
                        config.capacity_latency)} {
  if (config.fragmentation > 0.0) {
    SIM_CHECK_LE(config.fragmentation, 1.0);
    Rng rng(config.fragmentation_seed);
    for (MemoryTier& tier : tiers_) {
      const uint64_t huge_blocks = tier.total_frames() / kSubpagesPerHuge;
      const uint64_t to_break = static_cast<uint64_t>(
          static_cast<double>(huge_blocks) * config.fragmentation);
      // Pin one base frame inside `to_break` random huge blocks: those blocks
      // can no longer serve order-9 allocations.
      for (uint64_t i = 0; i < to_break; ++i) {
        auto frame = tier.allocator().Allocate(BuddyAllocator::kMaxOrder);
        if (!frame.has_value()) {
          break;
        }
        const uint64_t keep = rng.NextBelow(kSubpagesPerHuge);
        // Give back everything except one scattered 4 KiB frame.
        for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
          if (j != keep) {
            tier.allocator().Free(*frame + j, 0);
          }
        }
        ++pinned_frames_;
        ++pinned_per_tier_[static_cast<int>(tier.id())];
      }
    }
  }
}

PageInfo* MemorySystem::Deref(PageRef ref) {
  if (ref.index == kInvalidPage || ref.index >= pages_.size()) {
    return nullptr;
  }
  PageInfo& p = pages_[ref.index];
  if (!p.live || p.generation != ref.generation) {
    return nullptr;
  }
  return &p;
}

PageIndex MemorySystem::NewPageSlot() {
  if (!free_slots_.empty()) {
    const PageIndex index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  pages_.emplace_back();
  const PageIndex index = static_cast<PageIndex>(pages_.size() - 1);
  hot_.Resize(pages_.size());
  pages_[index].hot = &hot_;
  pages_[index].self = index;
  return index;
}

void MemorySystem::ReleasePageSlot(PageIndex index) {
  PageInfo& p = pages_[index];
  SIM_DCHECK(p.huge == nullptr);  // huge deaths must have recycled the meta
  const uint32_t next_gen = p.generation + 1;
  p = PageInfo{};
  p.generation = next_gen;
  // Re-bind the SoA back-reference (the blanket reset above cleared it) and
  // reset the slot's hot fields to the dead-slot defaults the audit certifies.
  p.hot = &hot_;
  p.self = index;
  hot_.ResetSlot(index);
  free_slots_.push_back(index);
}

std::unique_ptr<HugePageMeta> MemorySystem::AcquireHugeMeta(bool zeroed) {
  if (huge_meta_pool_.empty()) {
    ++huge_meta_allocated_;
    return std::make_unique<HugePageMeta>();
  }
  std::unique_ptr<HugePageMeta> meta = std::move(huge_meta_pool_.back());
  huge_meta_pool_.pop_back();
  if (zeroed) {
    meta->subpage_count.fill(0);
    meta->accessed.reset();
    meta->written.reset();
    meta->nonzero_subpages = 0;
  }
  return meta;
}

void MemorySystem::RecycleHugeMeta(std::unique_ptr<HugePageMeta> meta) {
  SIM_DCHECK(meta != nullptr);
  huge_meta_pool_.push_back(std::move(meta));
}

void MemorySystem::EnsurePageTable(Vpn end_vpn) {
  if (end_vpn > page_table_.size()) {
    page_table_.resize(end_vpn, kInvalidPage);
  }
}

std::optional<std::pair<TierId, FrameId>> MemorySystem::AllocFrame(
    PageKind kind, const AllocOptions& options, TenantId tenant) {
  const int order = kind == PageKind::kHuge ? BuddyAllocator::kMaxOrder : 0;
  // kAllocFail blocks only the preferred-tier attempt: the fallback below is
  // never injected, so a sized machine degrades (wrong-tier placement) rather
  // than tripping the machine-exhausted aborts in AllocateRegion/DemandFault.
  const bool preferred_blocked =
      faults_ != nullptr && faults_->ShouldInject(FaultSite::kAllocFail, now());
  // A preferred-fast placement that would push the tenant past its fast-tier
  // limit is redirected to the capacity tier. The fallback INTO fast (when the
  // preferred capacity tier is exhausted) stays ungated: denying it would OOM
  // a machine with free memory — it opens a borrow window instead (MapPage).
  bool quota_blocked = false;
  if (options.preferred == TierId::kFast &&
      !FastQuotaAllows(tenant, kind == PageKind::kHuge ? kSubpagesPerHuge : 1)) {
    quota_blocked = true;
    ++tenants_[tenant].quota_denied_allocs;
  }
  if (!preferred_blocked && !quota_blocked) {
    if (auto frame = tier(options.preferred).allocator().Allocate(order)) {
      return std::make_pair(options.preferred, *frame);
    }
  }
  if (options.allow_other_tier) {
    const TierId other = OtherTier(options.preferred);
    if (auto frame = tier(other).allocator().Allocate(order)) {
      return std::make_pair(other, *frame);
    }
  }
  return std::nullopt;
}

void MemorySystem::MapPage(PageIndex index, Vpn vpn, PageKind kind, TierId tier_id,
                           FrameId frame, TenantId tenant) {
  PageInfo& p = pages_[index];
  SIM_DCHECK(!p.live);
  SIM_DCHECK(tenant < tenants_.size());
  p.base_vpn = vpn;
  p.kind() = kind;
  p.tier() = tier_id;
  p.frame() = frame;
  p.live = true;
  p.tenant = tenant;
  p.access_count() = 0;
  p.cooling_epoch = 0;
  p.histogram_bin = 0xff;
  p.in_promotion_list = false;
  p.in_demotion_list = false;
  p.split_queued = false;
  p.alloc_time_ns = now();
  p.policy_word0 = 0;
  p.policy_word1 = 0;
  SIM_DCHECK(p.huge == nullptr);
  if (kind == PageKind::kHuge) [[unlikely]] {
    p.huge = AcquireHugeMeta();
    ++huge_pages_;  // fresh meta is all-zero: no written_subpages_ change
  }
  const uint64_t n = p.size_pages();
  EnsurePageTable(vpn + n);
  for (uint64_t i = 0; i < n; ++i) {
    SIM_DCHECK(page_table_[vpn + i] == kInvalidPage);
    page_table_[vpn + i] = index;
  }
  ++live_pages_;
  mapped_4k_ += n;
  mapped_4k_tier_[static_cast<int>(tier_id)] += n;
  tenants_[tenant].mapped_4k_tier[static_cast<int>(tier_id)] += n;
  if (tier_id == TierId::kFast) {
    TenantBorrowExtend(tenant);
  }
}

void MemorySystem::UnmapAndFree(PageIndex index) {
  PageInfo& p = pages_[index];
  SIM_DCHECK(p.live);
  const uint64_t n = p.size_pages();
  for (uint64_t i = 0; i < n; ++i) {
    page_table_[p.base_vpn + i] = kInvalidPage;
  }
  const int order = p.kind() == PageKind::kHuge ? BuddyAllocator::kMaxOrder : 0;
  tier(p.tier()).allocator().Free(p.frame(), order);
  if (tlb_ != nullptr) {
    tlb_->Shootdown(p.base_vpn, n);
  }
  --live_pages_;
  mapped_4k_ -= n;
  mapped_4k_tier_[static_cast<int>(p.tier())] -= n;
  tenants_[p.tenant].mapped_4k_tier[static_cast<int>(p.tier())] -= n;
  if (p.tier() == TierId::kFast) {
    TenantBorrowRatchet(p.tenant);
  }
  if (p.kind() == PageKind::kHuge) [[unlikely]] {
    ReleaseHugeState(p);
  }
  p.live = false;
  ReleasePageSlot(index);
}

// Out-of-line huge-page death path: keeps UnmapAndFree small enough to stay
// inlined in the base-page loops (split/collapse free 512 pages at a time).
void MemorySystem::ReleaseHugeState(PageInfo& p) {
  --huge_pages_;
  written_subpages_ -= p.huge->written.count();
  RecycleHugeMeta(std::move(p.huge));
}

Vaddr MemorySystem::AllocateRegion(uint64_t bytes, const AllocOptions& options) {
  SIM_CHECK_GT(bytes, 0u);
  // Round regions to huge-page multiples so THP layout is deterministic and
  // regions never share a huge-page span.
  const uint64_t num_pages =
      (bytes + kHugePageSize - 1) / kHugePageSize * kSubpagesPerHuge;

  // Find vpn space: first-fit in the free list, else extend the bump pointer.
  // The walk is skipped when the request exceeds max_free_range_bound_ (an
  // upper bound on the largest range) — it provably cannot succeed, so
  // placement is unchanged. A fruitless walk re-tightens the bound, keeping
  // alloc-heavy workloads from re-walking the whole list every time.
  Vpn start = 0;
  bool found = false;
  if (num_pages <= max_free_range_bound_) {
    uint64_t largest_seen = 0;
    for (auto it = free_vpn_ranges_.begin(); it != free_vpn_ranges_.end(); ++it) {
      if (it->second >= num_pages) {
        start = it->first;
        const uint64_t remaining = it->second - num_pages;
        free_vpn_ranges_.erase(it);
        if (remaining > 0) {
          free_vpn_ranges_.emplace(start + num_pages, remaining);
        }
        found = true;
        break;
      }
      largest_seen = std::max(largest_seen, it->second);
    }
    if (!found) {
      max_free_range_bound_ = largest_seen;
    }
  }
  if (!found) {
    start = vpn_bump_;
    vpn_bump_ += num_pages;
  }

  const TenantId tenant = current_tenant_;
  for (uint64_t offset = 0; offset < num_pages; offset += kSubpagesPerHuge) {
    const Vpn vpn = start + offset;
    if (options.use_thp) {
      if (auto placed = AllocFrame(PageKind::kHuge, options, tenant)) {
        MapPage(NewPageSlot(), vpn, PageKind::kHuge, placed->first, placed->second,
                tenant);
        continue;
      }
    }
    // THP disabled or no huge frame available anywhere: fall back to base pages.
    for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
      auto placed = AllocFrame(PageKind::kBase, options, tenant);
      SIM_CHECK(placed.has_value());  // machine must be sized for the workload
      MapPage(NewPageSlot(), vpn + j, PageKind::kBase, placed->first, placed->second,
              tenant);
    }
  }

  regions_.emplace(start, Region{start, num_pages, tenant});
  return start << kPageShift;
}

void MemorySystem::FreeRegion(Vaddr start) {
  const Vpn start_vpn = VpnOf(start);
  auto it = regions_.find(start_vpn);
  SIM_CHECK(it != regions_.end());
  const uint64_t num_pages = it->second.num_pages;
  for (Vpn vpn = start_vpn; vpn < start_vpn + num_pages;) {
    const PageIndex index = Lookup(vpn);
    if (index == kInvalidPage) {
      ++vpn;  // demand-zero hole left by a split
      continue;
    }
    const uint64_t n = pages_[index].size_pages();
    UnmapAndFree(index);
    vpn += n;
  }
  regions_.erase(it);

  // Return vpn space, merging with adjacent free ranges.
  Vpn free_start = start_vpn;
  uint64_t free_len = num_pages;
  auto next = free_vpn_ranges_.lower_bound(free_start);
  if (next != free_vpn_ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == free_start) {
      free_start = prev->first;
      free_len += prev->second;
      free_vpn_ranges_.erase(prev);
    }
  }
  next = free_vpn_ranges_.lower_bound(free_start + free_len);
  if (next != free_vpn_ranges_.end() && next->first == free_start + free_len) {
    free_len += next->second;
    free_vpn_ranges_.erase(next);
  }
  free_vpn_ranges_.emplace(free_start, free_len);
  max_free_range_bound_ = std::max(max_free_range_bound_, free_len);
}

bool MemorySystem::InRegion(Vaddr addr) const { return RegionAt(addr).has_value(); }

std::optional<std::pair<Vpn, uint64_t>> MemorySystem::RegionAt(Vaddr addr) const {
  const Vpn vpn = VpnOf(addr);
  auto it = regions_.upper_bound(vpn);
  if (it == regions_.begin()) {
    return std::nullopt;
  }
  --it;
  if (vpn >= it->second.start_vpn + it->second.num_pages) {
    return std::nullopt;
  }
  return std::make_pair(it->second.start_vpn, it->second.num_pages);
}

PageIndex MemorySystem::DemandFault(Vpn vpn, const AllocOptions& options) {
  SIM_CHECK_EQ(Lookup(vpn), kInvalidPage);
  const Region* region = RegionContaining(vpn);
  SIM_CHECK(region != nullptr);
  const TenantId tenant = region->tenant;  // owner, even if current changed
  auto placed = AllocFrame(PageKind::kBase, options, tenant);
  SIM_CHECK(placed.has_value());
  const PageIndex index = NewPageSlot();
  MapPage(index, vpn, PageKind::kBase, placed->first, placed->second, tenant);
  ++migration_stats_.demand_faults;
  return index;
}

bool MemorySystem::Migrate(PageIndex index, TierId dst) {
  PageInfo& p = pages_[index];
  SIM_DCHECK(p.live);
  if (p.tier() == dst) {
    return true;
  }
  const TenantId tenant = p.tenant;
  // Promotion gates (demotions are never gated; the steal path's inner
  // demotions are exempt via in_steal_). Order: quota, then self-steal, then
  // the tenant's weighted promotion-bandwidth bucket.
  if (dst == TierId::kFast && !in_steal_) {
    const uint64_t need = p.size_pages();
    if (!FastQuotaAllows(tenant, need)) {
      if (!StealForPromotion(tenant, need)) {
        ++tenants_[tenant].quota_denied_promotions;
        ++migration_stats_.failed_migrations;
        return false;
      }
      ++tenants_[tenant].quota_steals;
    }
    if (!tenants_[tenant].budget.Consume(now(), need)) {
      ++tenants_[tenant].budget_denied_promotions;
      ++migration_stats_.failed_migrations;
      return false;
    }
  }
  const int order = p.kind() == PageKind::kHuge ? BuddyAllocator::kMaxOrder : 0;
  auto frame = tier(dst).allocator().Allocate(order);
  if (!frame.has_value()) {
    ++migration_stats_.failed_migrations;
    return false;
  }
  if (faults_ != nullptr &&
      faults_->ShouldInject(FaultSite::kMigrateAbort, now())) {
    // Mid-copy abort: the reserved destination frame goes back and the page
    // is untouched — still mapped at its source tier/frame, no TLB shootdown
    // (the mapping never changed). See DESIGN.md, "rollback contract".
    tier(dst).allocator().Free(*frame, order);
    ++migration_stats_.aborted_migrations;
    return false;
  }
  tier(p.tier()).allocator().Free(p.frame(), order);
  if (tlb_ != nullptr) {
    tlb_->Shootdown(p.base_vpn, p.size_pages());
  }
  const bool promotion = dst == TierId::kFast;
  if (p.kind() == PageKind::kHuge) {
    (promotion ? migration_stats_.promoted_huge : migration_stats_.demoted_huge) += 1;
  } else {
    (promotion ? migration_stats_.promoted_base : migration_stats_.demoted_base) += 1;
  }
  const uint64_t n = p.size_pages();
  mapped_4k_tier_[static_cast<int>(p.tier())] -= n;
  mapped_4k_tier_[static_cast<int>(dst)] += n;
  tenants_[tenant].mapped_4k_tier[static_cast<int>(p.tier())] -= n;
  tenants_[tenant].mapped_4k_tier[static_cast<int>(dst)] += n;
  // A promotion passed the quota gate above, so it never needs to extend the
  // borrow window (the audit invariant would flag an enforcement bug if it
  // did); a demotion shrinks fast usage and ratchets the window.
  if (!promotion) {
    TenantBorrowRatchet(tenant);
  }
  p.tier() = dst;
  p.frame() = *frame;
  return true;
}

bool MemorySystem::ExchangePages(PageIndex hot, PageIndex cold) {
  if (hot == cold) {
    ++migration_stats_.failed_exchanges;
    return false;
  }
  PageInfo& h = pages_[hot];
  PageInfo& c = pages_[cold];
  // Strict direction and matching kinds: the swap reuses both frames in
  // place, so the orders must agree, and `hot` must be the capacity-tier side.
  if (!h.live || !c.live || h.kind() != c.kind() || h.tier() != TierId::kCapacity ||
      c.tier() != TierId::kFast) {
    ++migration_stats_.failed_exchanges;
    return false;
  }
  const uint64_t n = h.size_pages();
  const TenantId hot_tenant = h.tenant;
  const TenantId cold_tenant = c.tenant;
  // A same-tenant exchange is fast-tier-neutral for its owner and skips the
  // steal-or-deny path entirely. Across tenants the hot side's owner grows by
  // n fast pages and must fit under its quota as-is — no steal, because the
  // cold page already is the eviction.
  if (hot_tenant != cold_tenant && !FastQuotaAllows(hot_tenant, n)) {
    ++tenants_[hot_tenant].quota_denied_promotions;
    ++migration_stats_.failed_exchanges;
    return false;
  }
  // The hot side is still a promotion: it draws the owner's weighted
  // promotion-bandwidth tokens exactly like Migrate (not refunded on abort,
  // matching the mid-copy-abort semantics of plain migration).
  if (!tenants_[hot_tenant].budget.Consume(now(), n)) {
    ++tenants_[hot_tenant].budget_denied_promotions;
    ++migration_stats_.failed_exchanges;
    return false;
  }
  if (faults_ != nullptr &&
      faults_->ShouldInject(FaultSite::kExchangeAbort, now())) {
    // Mid-swap abort: nothing has moved yet, so the two-sided rollback is a
    // no-op — both pages stay mapped at their original tier/frame and no TLB
    // shootdown is issued. See DESIGN.md, "exchange contract".
    ++migration_stats_.aborted_exchanges;
    return false;
  }
  // Commit: both mappings change, so both vpn spans are shot down; the frames
  // trade owners without touching the buddy allocators.
  if (tlb_ != nullptr) {
    tlb_->Shootdown(h.base_vpn, n);
    tlb_->Shootdown(c.base_vpn, n);
  }
  std::swap(h.frame(), c.frame());
  h.tier() = TierId::kFast;
  c.tier() = TierId::kCapacity;
  // Global per-tier counters are unchanged (n pages enter and leave each
  // tier); per-tenant counters move only when the owners differ.
  if (hot_tenant != cold_tenant) {
    constexpr int kFastIdx = static_cast<int>(TierId::kFast);
    constexpr int kCapIdx = static_cast<int>(TierId::kCapacity);
    tenants_[hot_tenant].mapped_4k_tier[kFastIdx] += n;
    tenants_[hot_tenant].mapped_4k_tier[kCapIdx] -= n;
    tenants_[cold_tenant].mapped_4k_tier[kFastIdx] -= n;
    tenants_[cold_tenant].mapped_4k_tier[kCapIdx] += n;
    TenantBorrowRatchet(cold_tenant);
  }
  ++migration_stats_.exchanges;
  if (h.kind() == PageKind::kHuge) {
    ++migration_stats_.exchanged_huge;
  }
  return true;
}

bool MemorySystem::StealForPromotion(TenantId tenant, uint64_t frames) {
  SIM_DCHECK(!in_steal_);
  in_steal_ = true;
  bool ok = true;
  while (!FastQuotaAllows(tenant, frames)) {
    // Deterministic victim: the tenant's coldest live fast page, ties broken
    // by lowest page slot (ForEachLivePage visits slots in order).
    PageIndex victim = kInvalidPage;
    uint64_t coldest = UINT64_MAX;
    ForEachLivePage([&](PageIndex i, PageInfo& p) {
      if (p.tenant == tenant && p.tier() == TierId::kFast && p.hotness() < coldest) {
        coldest = p.hotness();
        victim = i;
      }
    });
    if (victim == kInvalidPage || !Migrate(victim, TierId::kCapacity)) {
      ok = false;  // no same-tenant fast victim, or capacity tier is full
      break;
    }
  }
  in_steal_ = false;
  return ok;
}

void MemorySystem::TenantBorrowExtend(TenantId tenant) {
  TenantFrameStats& t = tenants_[tenant];
  if (t.fast_pages() > t.quota_frames && t.fast_pages() > t.borrow_frames) {
    t.borrow_frames = t.fast_pages();
  }
}

void MemorySystem::TenantBorrowRatchet(TenantId tenant) {
  TenantFrameStats& t = tenants_[tenant];
  if (t.borrow_frames == 0) {
    return;
  }
  if (t.fast_pages() <= t.quota_frames) {
    t.borrow_frames = 0;  // back under quota: the window closes
  } else if (t.borrow_frames > t.fast_pages()) {
    t.borrow_frames = t.fast_pages();  // tighten to current usage
  }
}

const MemorySystem::Region* MemorySystem::RegionContaining(Vpn vpn) const {
  auto it = regions_.upper_bound(vpn);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  if (vpn >= it->second.start_vpn + it->second.num_pages) {
    return nullptr;
  }
  return &it->second;
}

std::vector<Vaddr> MemorySystem::TenantRegionStarts(TenantId tenant) const {
  std::vector<Vaddr> starts;
  for (const auto& [start_vpn, region] : regions_) {
    if (region.tenant == tenant) {
      starts.push_back(start_vpn << kPageShift);
    }
  }
  return starts;
}

uint64_t MemorySystem::ShrinkTier(TierId id, uint64_t frames) {
  MemoryTier& t = tier(id);
  uint64_t pinned = 0;
  while (pinned < frames) {
    if (!t.allocator().Allocate(0).has_value()) {
      break;  // tier has no free frame left; shrink as far as possible
    }
    ++pinned;
  }
  pinned_frames_ += pinned;
  pinned_per_tier_[static_cast<int>(id)] += pinned;
  return pinned;
}

uint64_t MemorySystem::SplitHugePage(PageIndex index,
                                     const std::function<TierId(uint32_t)>& subpage_tier) {
  PageInfo& p = pages_[index];
  SIM_CHECK(p.live);
  SIM_CHECK(p.kind() == PageKind::kHuge);
  SIM_CHECK(p.huge != nullptr);

  // Snapshot what we need; the huge PageInfo dies before subpages are mapped.
  // The meta is moved out (not copied) and recycled once the subpages exist.
  const Vpn base_vpn = p.base_vpn;
  const TierId old_tier = p.tier();
  const FrameId old_frame = p.frame();
  const uint32_t cooling_epoch = p.cooling_epoch;
  const uint64_t alloc_time = p.alloc_time_ns;
  const TenantId tenant = p.tenant;  // children inherit ownership
  std::unique_ptr<HugePageMeta> meta = std::move(p.huge);

  // Unmap the huge page: clear the span, free the order-9 frame, shoot down.
  for (uint64_t i = 0; i < kSubpagesPerHuge; ++i) {
    page_table_[base_vpn + i] = kInvalidPage;
  }
  tier(old_tier).allocator().Free(old_frame, BuddyAllocator::kMaxOrder);
  if (tlb_ != nullptr) {
    tlb_->Shootdown(base_vpn, kSubpagesPerHuge);
  }
  --live_pages_;
  mapped_4k_ -= kSubpagesPerHuge;
  mapped_4k_tier_[static_cast<int>(old_tier)] -= kSubpagesPerHuge;
  tenants_[tenant].mapped_4k_tier[static_cast<int>(old_tier)] -= kSubpagesPerHuge;
  if (old_tier == TierId::kFast) {
    TenantBorrowRatchet(tenant);
  }
  --huge_pages_;
  written_subpages_ -= meta->written.count();
  pages_[index].live = false;
  ReleasePageSlot(index);

  uint64_t created = 0;
  for (uint32_t j = 0; j < kSubpagesPerHuge; ++j) {
    if (!meta->written[j]) {
      // All-zero subpage: unmap and free (paper §4.3.3). A later write demand-
      // faults a fresh page.
      ++migration_stats_.freed_zero_subpages;
      continue;
    }
    AllocOptions opts;
    opts.preferred = subpage_tier(j);
    opts.allow_other_tier = true;
    auto placed = AllocFrame(PageKind::kBase, opts, tenant);
    SIM_CHECK(placed.has_value());  // we just freed 512 frames; cannot fail
    const PageIndex child = NewPageSlot();
    MapPage(child, base_vpn + j, PageKind::kBase, placed->first, placed->second,
            tenant);
    PageInfo& cp = pages_[child];
    cp.access_count() = meta->subpage_count[j];
    cp.cooling_epoch = cooling_epoch;
    cp.alloc_time_ns = alloc_time;
    ++created;
  }
  RecycleHugeMeta(std::move(meta));
  ++migration_stats_.splits;
  return created;
}

bool MemorySystem::CollapseToHuge(Vpn huge_vpn, TierId dst) {
  SIM_CHECK_EQ(SubpageIndexOf(huge_vpn), 0u);
  // Validate: all 512 vpns are live base pages. Regions never share a huge
  // span, so all 512 belong to one tenant — the collapse result inherits it.
  uint64_t fast_base = 0;
  for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
    const PageIndex index = Lookup(huge_vpn + j);
    if (index == kInvalidPage || pages_[index].kind() != PageKind::kBase) {
      return false;
    }
    fast_base += pages_[index].tier() == TierId::kFast ? 1 : 0;
  }
  const TenantId tenant = pages_[Lookup(huge_vpn)].tenant;
  // Quota gate on the net fast-tier growth: collapsing into fast replaces
  // `fast_base` fast frames with 512, which must still fit under the limit.
  if (dst == TierId::kFast && fast_base < kSubpagesPerHuge) {
    const TenantFrameStats& t = tenants_[tenant];
    if (t.fast_pages() - fast_base + kSubpagesPerHuge > t.effective_fast_limit()) {
      ++tenants_[tenant].quota_denied_promotions;
      return false;
    }
  }
  auto frame = tier(dst).allocator().Allocate(BuddyAllocator::kMaxOrder);
  if (!frame.has_value()) {
    return false;
  }

  // Fill a pooled meta while the base pages still exist (they die before the
  // huge page can be mapped), then install it without copying. The loop below
  // overwrites every field, so skip the acquire-time zeroing.
  std::unique_ptr<HugePageMeta> huge_meta = AcquireHugeMeta(/*zeroed=*/false);
  uint64_t total_count = 0;
  uint32_t cooling_epoch = 0;
  uint32_t nonzero = 0;
  for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
    const PageIndex index = Lookup(huge_vpn + j);
    PageInfo& bp = pages_[index];
    const uint32_t c =
        static_cast<uint32_t>(std::min<uint64_t>(bp.access_count(), UINT32_MAX));
    huge_meta->subpage_count[j] = c;  // fresh meta: maintain nonzero locally
    nonzero += c != 0;
    huge_meta->accessed[j] = bp.access_count() > 0;
    huge_meta->written[j] = true;  // collapse candidates were written base pages
    total_count += bp.access_count();
    cooling_epoch = std::max(cooling_epoch, bp.cooling_epoch);
    // Free the base page (clears page table span of 1).
    UnmapAndFree(index);
  }
  huge_meta->nonzero_subpages = nonzero;

  const PageIndex index = NewPageSlot();
  MapPage(index, huge_vpn, PageKind::kHuge, dst, *frame, tenant);
  PageInfo& hp = pages_[index];
  std::swap(hp.huge, huge_meta);
  RecycleHugeMeta(std::move(huge_meta));  // the zeroed meta MapPage installed
  written_subpages_ += hp.huge->written.count();
  hp.access_count() = total_count;
  hp.cooling_epoch = cooling_epoch;
  ++migration_stats_.collapses;
  return true;
}

void MemorySystem::ClearAccessedBits() {
  for (PageInfo& p : pages_) {
    if (p.live && p.kind() == PageKind::kHuge) {
      p.huge->accessed.reset();
    }
  }
}

double MemorySystem::huge_page_ratio() const {
  if (mapped_4k_ == 0) {
    return 0.0;
  }
  return static_cast<double>(huge_pages_ * kSubpagesPerHuge) /
         static_cast<double>(mapped_4k_);
}

MemCensus MemorySystem::TakeCensus() const {
  // The first fault CheckConsistency reports for slot i ("" when sound). Dead
  // slots must hold the ResetSlot defaults, so no stale hot state leaks.
  const auto slot_fault = [this](PageIndex i) -> std::string {
    const PageInfo& p = pages_[i];
    if (p.hot != &hot_ || p.self != i) {
      return "page slot " + std::to_string(i) + " hot-array back-reference broken";
    }
    if (!p.live) {
      if (hot_.kind[i] != PageKind::kBase || hot_.tier[i] != TierId::kCapacity ||
          hot_.frame[i] != 0 || hot_.access_count[i] != 0) {
        return "dead page slot " + std::to_string(i) + " holds non-default hot fields";
      }
      return {};
    }
    if (p.tenant >= tenants_.size()) {
      return "page " + std::to_string(i) + " owned by unregistered tenant " +
             std::to_string(p.tenant);
    }
    // Every vpn of the span must map back to i: one bounds test for the span,
    // then an OR of (entry ^ i) over it, which is zero iff all entries match.
    // Only a mismatch reruns the per-vpn walk to name the first bad vpn.
    const uint64_t n = p.size_pages();
    bool mapped_back =
        p.base_vpn <= page_table_.size() && n <= page_table_.size() - p.base_vpn;
    if (mapped_back) {
      const PageIndex* span = page_table_.data() + p.base_vpn;
      PageIndex diff = 0;
      for (uint64_t j = 0; j < n; ++j) {
        diff |= span[j] ^ i;
      }
      mapped_back = diff == 0;
    }
    for (uint64_t j = 0; !mapped_back && j < n; ++j) {
      if (p.base_vpn + j >= page_table_.size() || page_table_[p.base_vpn + j] != i) {
        return "page " + std::to_string(i) + " (vpn " + std::to_string(p.base_vpn) +
               " + " + std::to_string(j) + ") not mapped back by the page table";
      }
    }
    if (p.kind() == PageKind::kHuge && p.huge == nullptr) {
      return "huge page " + std::to_string(i) + " has no HugePageMeta";
    }
    return {};
  };

  MemCensus c;
  c.tenant_mapped_4k.assign(tenants_.size() * kNumTiers, 0);
  if (hot_.size() != pages_.size()) {  // and slots past the arrays go unwalked
    c.slot_error = "hot arrays sized " + std::to_string(hot_.size()) +
                   " != page slots " + std::to_string(pages_.size());
  }
  const PageIndex slots = static_cast<PageIndex>(std::min(pages_.size(), hot_.size()));
  for (PageIndex i = 0; i < slots; ++i) {
    if (c.slot_error.empty()) {
      c.slot_error = slot_fault(i);
    }
    const PageInfo& p = pages_[i];
    if (!p.live) {
      continue;
    }
    const bool huge = hot_.kind[i] == PageKind::kHuge;
    const int tier = static_cast<int>(hot_.tier[i]);
    const uint64_t n = huge ? kSubpagesPerHuge : 1;
    ++c.live_pages;
    c.mapped_4k += n;
    c.mapped_4k_tier[tier] += n;
    if (huge) {
      ++c.live_huge_pages;
      c.written_subpages += p.huge != nullptr ? CountSubpages(p.huge->written) : 0;
    }
    if (c.live_pages > live_pages_) {
      continue;  // past ForEachLivePage's reach
    }
    if (p.tenant >= tenants_.size()) {
      c.unregistered_owner.push_back(i);
    } else {
      c.tenant_mapped_4k[p.tenant * kNumTiers + tier] += n;
    }
    if (c.huge_faults.size() == MemCensus::kMaxHugeFaultPages) {
      continue;
    }
    MemCensus::HugeFaultPage f{i, 0, 0, 0};
    if (huge != (p.huge != nullptr)) {
      f.faults = huge ? MemCensus::kNoMeta : MemCensus::kBaseWithMeta;
    } else if (huge) {
      // 32-bit lanes are exact while every counter is below 2^23 (512 of them
      // then stay below 2^32); a larger counter takes the 64-bit sum.
      const auto& counts = p.huge->subpage_count;
      uint32_t sum = 0;
      uint32_t any = 0;
      for (uint32_t count : counts) {
        sum += count;
        any |= count;
        f.nonzero += count != 0 ? 1 : 0;
      }
      f.subpage_sum = any < (1u << 23)
                          ? sum
                          : std::accumulate(counts.begin(), counts.end(), uint64_t{0});
      f.faults = (p.base_vpn % kSubpagesPerHuge != 0 ? MemCensus::kUnaligned : 0) |
                 (f.subpage_sum > hot_.access_count[i] ? MemCensus::kSubpageSum : 0) |
                 (f.nonzero != p.huge->nonzero_subpages ? MemCensus::kNonzeroSummary : 0);
    }
    if (f.faults != 0) {
      c.huge_faults.push_back(f);
    }
  }
  for (int t = 0; t < kNumTiers; ++t) {
    tiers_[t].allocator().CheckConsistency(&c.buddy_error[t]);
  }
  return c;
}

bool MemorySystem::CheckConsistency(const MemCensus& census, std::string* error) const {
  const auto fail = [error](std::string detail) {
    if (error != nullptr) {
      *error = std::move(detail);
    }
    return false;
  };
  if (!census.slot_error.empty()) {
    return fail(census.slot_error);
  }
  if (census.mapped_4k != mapped_4k_) {
    return fail("recounted mapped 4k pages " + std::to_string(census.mapped_4k) +
                " != tracked " + std::to_string(mapped_4k_));
  }
  if (census.live_pages != live_pages_) {
    return fail("recounted live pages " + std::to_string(census.live_pages) +
                " != tracked " + std::to_string(live_pages_));
  }
  if (census.live_huge_pages != huge_pages_) {
    return fail("recounted huge pages " + std::to_string(census.live_huge_pages) +
                " != tracked " + std::to_string(huge_pages_));
  }
  if (census.written_subpages != written_subpages_) {
    return fail("recounted written subpages " + std::to_string(census.written_subpages) +
                " != tracked " + std::to_string(written_subpages_));
  }
  for (int t = 0; t < kNumTiers; ++t) {
    if (census.mapped_4k_tier[t] != mapped_4k_tier_[t]) {
      return fail("recounted mapped 4k in tier " + std::to_string(t) + " " +
                  std::to_string(census.mapped_4k_tier[t]) + " != tracked " +
                  std::to_string(mapped_4k_tier_[t]));
    }
  }
  // Per-tenant conservation: tracked counters match a recount, sum back to the
  // global per-tier counters, and fast usage respects quota/borrow.
  for (size_t id = 0; id < tenants_.size(); ++id) {
    const TenantFrameStats& t = tenants_[id];
    for (int tier_i = 0; tier_i < kNumTiers; ++tier_i) {
      const uint64_t recounted = census.tenant_mapped_4k[id * kNumTiers + tier_i];
      if (recounted != t.mapped_4k_tier[tier_i]) {
        return fail("tenant " + std::to_string(id) + " recounted mapped 4k in tier " +
                    std::to_string(tier_i) + " " + std::to_string(recounted) +
                    " != tracked " + std::to_string(t.mapped_4k_tier[tier_i]));
      }
    }
    if (t.fast_pages() > t.effective_fast_limit()) {
      return fail("tenant " + std::to_string(id) + " fast usage " +
                  std::to_string(t.fast_pages()) + " exceeds limit " +
                  std::to_string(t.effective_fast_limit()) + " (quota " +
                  std::to_string(t.quota_frames) + ", borrow " +
                  std::to_string(t.borrow_frames) + ")");
    }
    if (t.budget.active &&
        (t.budget.burst + t.budget.credited_pages - t.budget.consumed_pages !=
             t.budget.tokens ||
         t.budget.tokens > t.budget.burst)) {
      return fail("tenant " + std::to_string(id) + " budget ledger broken: burst " +
                  std::to_string(t.budget.burst) + " + credited " +
                  std::to_string(t.budget.credited_pages) + " - consumed " +
                  std::to_string(t.budget.consumed_pages) + " != tokens " +
                  std::to_string(t.budget.tokens));
    }
  }
  for (int tier_i = 0; tier_i < kNumTiers; ++tier_i) {
    uint64_t sum = 0;
    for (size_t id = 0; id < tenants_.size(); ++id) {
      sum += tenants_[id].mapped_4k_tier[tier_i];
    }
    if (sum != mapped_4k_tier_[tier_i]) {
      return fail("per-tenant mapped 4k in tier " + std::to_string(tier_i) +
                  " sums to " + std::to_string(sum) + " != global " +
                  std::to_string(mapped_4k_tier_[tier_i]));
    }
  }
  if (huge_meta_allocated_ != huge_meta_pool_.size() + huge_pages_) {
    return fail("huge-meta pool leak: " + std::to_string(huge_meta_allocated_) +
                " allocated != " + std::to_string(huge_meta_pool_.size()) +
                " pooled + " + std::to_string(huge_pages_) + " live");
  }
  if (census.mapped_4k + pinned_frames_ !=
      tiers_[0].used_frames() + tiers_[1].used_frames()) {
    return fail("mapped " + std::to_string(census.mapped_4k) + " + pinned " +
                std::to_string(pinned_frames_) + " != used frames " +
                std::to_string(tiers_[0].used_frames() + tiers_[1].used_frames()));
  }
  for (int t = 0; t < kNumTiers; ++t) {
    if (!census.buddy_error[t].empty()) {
      return fail(tiers_[t].name() + " tier buddy allocator: " + census.buddy_error[t]);
    }
  }
  return true;
}

namespace {
constexpr uint32_t kSectionMem = 0x4d454d53;  // "MEMS"
constexpr uint32_t kSectionTenants = 0x544e5453;
}  // namespace

void MemorySystem::VisitState(StateCodec& c) {
  SIM_CHECK(c.loading() || !in_steal_);  // checkpoints fire at safe points
  c.Section(kSectionMem);
  uint64_t total_frames = 0;
  for (MemoryTier& tier : tiers_) {
    c.Record("allocator", tier.allocator());
    total_frames += tier.allocator().total_frames();
  }

  // Page slots: every slot's generation (so stale PageRefs stay stale), the
  // metadata of live ones. A slot is added only while no slot is free, and
  // every live page holds a frame, so the tiers' frames bound the count.
  const uint64_t slots = c.Count("slots", pages_.size(), total_frames);
  if (c.loading()) {
    pages_.clear();
    pages_.resize(slots);
    hot_ = PageHotArrays{};
    hot_.Resize(slots);
  }
  for (PageIndex i = 0; i < slots && c.ok(); ++i) {
    PageInfo& p = pages_[i];
    if (c.loading()) {
      p.hot = &hot_;
      p.self = i;
    }
    c.Field("generation", p.generation);
    c.Field("live", p.live);
    if (!p.live) {
      continue;
    }
    c.Field("base_vpn", p.base_vpn);
    c.Field("tenant", p.tenant);
    c.Field("cooling_epoch", p.cooling_epoch);
    c.Field("histogram_bin", p.histogram_bin);
    c.Field("in_promotion_list", p.in_promotion_list);
    c.Field("in_demotion_list", p.in_demotion_list);
    c.Field("split_queued", p.split_queued);
    c.Field("alloc_time_ns", p.alloc_time_ns);
    c.Field("policy_word0", p.policy_word0);
    c.Field("policy_word1", p.policy_word1);
    c.Enum("kind", hot_.kind[i], static_cast<uint8_t>(PageKind::kHuge) + 1);
    c.Enum("tier", hot_.tier[i], kNumTiers);
    c.Field("frame", hot_.frame[i]);
    c.Field("access_count", hot_.access_count[i]);
    bool huge = p.huge != nullptr;
    c.Field("huge", huge);
    if (huge) {
      if (c.loading()) {
        p.huge = std::make_unique<HugePageMeta>();
      }
      c.Record("huge_meta", *p.huge);
    }
  }

  c.Array("free_slots", free_slots_);
  c.Array("page_table", page_table_);
  c.Field("live_pages", live_pages_);
  c.Field("mapped_4k", mapped_4k_);
  c.Field("huge_pages", huge_pages_);
  c.Array("mapped_4k_tier", mapped_4k_tier_);
  c.Field("written_subpages", written_subpages_);
  // Pooled metas are empty buffers: only their number is stored. Each one
  // served a live huge page, which holds 512 frames, so the tiers bound it.
  const uint64_t pooled = c.Count("huge_meta_pool", huge_meta_pool_.size(),
                                  total_frames / kSubpagesPerHuge);
  c.Field("huge_meta_allocated", huge_meta_allocated_);
  if (c.loading()) {
    huge_meta_pool_.clear();
    for (uint64_t i = 0; i < pooled; ++i) {
      huge_meta_pool_.push_back(std::make_unique<HugePageMeta>());
    }
  }
  c.Field("pinned_frames", pinned_frames_);
  c.Array("pinned_per_tier", pinned_per_tier_);
  c.Array("regions", regions_);
  c.Array("free_vpn_ranges", free_vpn_ranges_);
  c.Field("vpn_bump", vpn_bump_);
  c.Field("max_free_range_bound", max_free_range_bound_);
  c.Record("migration", migration_stats_);

  c.Section(kSectionTenants);
  c.Array("tenants", tenants_);
  c.Field("current_tenant", current_tenant_);
  in_steal_ = false;
  if (c.loading() && c.ok() && !LoadedIndicesInRange()) {
    c.Fail();
  }
}

bool MemorySystem::LoadedIndicesInRange() const {
  // Every value a later lookup indexes with: tenant ids, slot ids, page-table
  // entries and frames. A CRC-valid file is not a trusted one.
  const size_t tenants = tenants_.size();
  if (tenants == 0 || tenants > (size_t{1} << 16) || current_tenant_ >= tenants ||
      huge_meta_pool_.size() > huge_meta_allocated_) {
    return false;
  }
  for (const PageInfo& p : pages_) {
    if (!p.live) {
      continue;
    }
    const uint64_t frames = tier(p.tier()).allocator().total_frames();
    if (p.tenant >= tenants || p.frame() >= frames ||
        frames - p.frame() < p.size_pages()) {
      return false;
    }
  }
  for (const PageIndex slot : free_slots_) {
    if (slot >= pages_.size()) {
      return false;
    }
  }
  for (const PageIndex entry : page_table_) {
    if (entry != kInvalidPage && entry >= pages_.size()) {
      return false;
    }
  }
  for (const auto& [vpn, region] : regions_) {
    if (region.tenant >= tenants) {
      return false;
    }
  }
  return true;
}

}  // namespace memtis
