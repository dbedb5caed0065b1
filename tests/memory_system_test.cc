#include "src/mem/memory_system.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {

MemoryConfig SmallConfig(uint64_t fast = 2048, uint64_t capacity = 8192) {
  return MemoryConfig{.fast_frames = fast, .capacity_frames = capacity};
}

TEST(MemorySystem, AllocateRegionWithThpUsesHugePages) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(4 * kHugePageSize, AllocOptions{});
  EXPECT_EQ(mem.live_page_count(), 4u);
  EXPECT_EQ(mem.mapped_4k_pages(), 4 * kSubpagesPerHuge);
  EXPECT_DOUBLE_EQ(mem.huge_page_ratio(), 1.0);
  const PageIndex index = mem.Lookup(VpnOf(start));
  ASSERT_NE(index, kInvalidPage);
  EXPECT_EQ(mem.page(index).kind(), PageKind::kHuge);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, AllocateRegionWithoutThpUsesBasePages) {
  MemorySystem mem(SmallConfig());
  AllocOptions opts;
  opts.use_thp = false;
  mem.AllocateRegion(kHugePageSize, opts);
  EXPECT_EQ(mem.live_page_count(), kSubpagesPerHuge);
  EXPECT_DOUBLE_EQ(mem.huge_page_ratio(), 0.0);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, AllocationPrefersRequestedTierThenSpills) {
  MemorySystem mem(SmallConfig(/*fast=*/1024, /*capacity=*/4096));
  // Fast holds 2 huge pages; ask for 3.
  const Vaddr start = mem.AllocateRegion(3 * kHugePageSize, AllocOptions{});
  int fast_pages = 0;
  int capacity_pages = 0;
  for (int i = 0; i < 3; ++i) {
    const PageInfo& p = mem.page(mem.Lookup(VpnOf(start) + i * kSubpagesPerHuge));
    (p.tier() == TierId::kFast ? fast_pages : capacity_pages) += 1;
  }
  EXPECT_EQ(fast_pages, 2);
  EXPECT_EQ(capacity_pages, 1);
}

TEST(MemorySystem, FreeRegionReturnsEverything) {
  MemorySystem mem(SmallConfig());
  const Vaddr a = mem.AllocateRegion(2 * kHugePageSize, AllocOptions{});
  const uint64_t used = mem.rss_pages();
  EXPECT_EQ(used, 2 * kSubpagesPerHuge);
  mem.FreeRegion(a);
  EXPECT_EQ(mem.rss_pages(), 0u);
  EXPECT_EQ(mem.live_page_count(), 0u);
  EXPECT_FALSE(mem.InRegion(a));
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, VpnSpaceIsReusedAfterFree) {
  MemorySystem mem(SmallConfig());
  const Vaddr a = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  mem.FreeRegion(a);
  const Vaddr b = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  EXPECT_EQ(a, b);  // first-fit reuse keeps the vpn space bounded
}

TEST(MemorySystem, MigrateMovesBetweenTiers) {
  MemorySystem mem(SmallConfig());
  AllocOptions opts;
  opts.preferred = TierId::kCapacity;
  const Vaddr start = mem.AllocateRegion(kHugePageSize, opts);
  const PageIndex index = mem.Lookup(VpnOf(start));
  EXPECT_EQ(mem.page(index).tier(), TierId::kCapacity);
  ASSERT_TRUE(mem.Migrate(index, TierId::kFast));
  EXPECT_EQ(mem.page(index).tier(), TierId::kFast);
  EXPECT_EQ(mem.migration_stats().promoted_huge, 1u);
  EXPECT_EQ(mem.tier(TierId::kFast).used_frames(), kSubpagesPerHuge);
  EXPECT_EQ(mem.tier(TierId::kCapacity).used_frames(), 0u);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, MigrateFailsWhenDestinationFull) {
  MemorySystem mem(SmallConfig(/*fast=*/512, /*capacity=*/2048));
  mem.AllocateRegion(kHugePageSize, AllocOptions{});  // fills fast
  AllocOptions opts;
  opts.preferred = TierId::kCapacity;
  const Vaddr start = mem.AllocateRegion(kHugePageSize, opts);
  const PageIndex index = mem.Lookup(VpnOf(start));
  EXPECT_FALSE(mem.Migrate(index, TierId::kFast));
  EXPECT_EQ(mem.migration_stats().failed_migrations, 1u);
}

TEST(MemorySystem, MigrationShootsDownTlb) {
  MemorySystem mem(SmallConfig());
  Tlb tlb;
  mem.AttachTlb(&tlb);
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const PageIndex index = mem.Lookup(VpnOf(start));
  tlb.Access(VpnOf(start), PageKind::kHuge);
  ASSERT_TRUE(mem.Migrate(index, TierId::kCapacity));
  EXPECT_FALSE(tlb.Access(VpnOf(start), PageKind::kHuge));
  EXPECT_GE(tlb.stats().shootdowns, 1u);
}

TEST(MemorySystem, SplitHugePageFreesZeroSubpages) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const PageIndex index = mem.Lookup(VpnOf(start));
  PageInfo& page = mem.page(index);
  // Only 10 subpages were ever written.
  for (uint32_t j = 0; j < 10; ++j) {
    mem.NoteSubpageAccess(page, j, /*is_write=*/true);
    page.huge->SetSubpageCount(j, 100);
  }
  const uint64_t rss_before = mem.rss_pages();
  const uint64_t created = mem.SplitHugePage(
      index, [](uint32_t j) { return j < 5 ? TierId::kFast : TierId::kCapacity; });
  EXPECT_EQ(created, 10u);
  EXPECT_EQ(mem.migration_stats().freed_zero_subpages, kSubpagesPerHuge - 10);
  EXPECT_EQ(mem.rss_pages(), rss_before - (kSubpagesPerHuge - 10));
  // Hotness was carried into the subpages.
  const PageIndex child = mem.Lookup(VpnOf(start));
  ASSERT_NE(child, kInvalidPage);
  EXPECT_EQ(mem.page(child).kind(), PageKind::kBase);
  EXPECT_EQ(mem.page(child).access_count(), 100u);
  EXPECT_EQ(mem.page(child).tier(), TierId::kFast);
  // Unwritten subpages are unmapped.
  EXPECT_EQ(mem.Lookup(VpnOf(start) + 100), kInvalidPage);
  EXPECT_EQ(mem.migration_stats().splits, 1u);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, DemandFaultRepopulatesSplitHole) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const PageIndex index = mem.Lookup(VpnOf(start));
  mem.NoteSubpageAccess(mem.page(index), 0, /*is_write=*/true);
  mem.SplitHugePage(mem.Lookup(VpnOf(start)),
                    [](uint32_t) { return TierId::kFast; });
  const Vpn hole = VpnOf(start) + 7;
  ASSERT_EQ(mem.Lookup(hole), kInvalidPage);
  ASSERT_TRUE(mem.InRegion(hole << kPageShift));
  const PageIndex fresh = mem.DemandFault(hole, AllocOptions{});
  EXPECT_EQ(mem.page(fresh).kind(), PageKind::kBase);
  EXPECT_EQ(mem.Lookup(hole), fresh);
  EXPECT_EQ(mem.migration_stats().demand_faults, 1u);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, StalePageRefIsRejectedAfterSplit) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const PageIndex index = mem.Lookup(VpnOf(start));
  const PageRef ref = mem.page(index).ref(index);
  mem.NoteSubpageAccess(mem.page(index), 0, /*is_write=*/true);
  mem.SplitHugePage(index, [](uint32_t) { return TierId::kFast; });
  EXPECT_EQ(mem.Deref(ref), nullptr);
}

TEST(MemorySystem, CollapseRebuildsHugePage) {
  MemorySystem mem(SmallConfig());
  AllocOptions opts;
  opts.use_thp = false;
  const Vaddr start = mem.AllocateRegion(kHugePageSize, opts);
  const Vpn vpn = VpnOf(start);
  for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
    mem.page(mem.Lookup(vpn + j)).access_count() = j;
  }
  ASSERT_TRUE(mem.CollapseToHuge(vpn, TierId::kFast));
  const PageIndex index = mem.Lookup(vpn);
  const PageInfo& hp = mem.page(index);
  EXPECT_EQ(hp.kind(), PageKind::kHuge);
  EXPECT_EQ(hp.access_count(), kSubpagesPerHuge * (kSubpagesPerHuge - 1) / 2);
  EXPECT_EQ(hp.huge->subpage_count[5], 5u);
  EXPECT_EQ(mem.migration_stats().collapses, 1u);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, CollapseFailsOnHole) {
  MemorySystem mem(SmallConfig());
  AllocOptions opts;
  opts.use_thp = false;
  const Vaddr start = mem.AllocateRegion(kHugePageSize, opts);
  // Punch a hole by freeing... simulate via split path: just check a huge page
  // cannot collapse when one vpn is huge already.
  const Vaddr other = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  EXPECT_FALSE(mem.CollapseToHuge(VpnOf(other), TierId::kFast));
  (void)start;
}

TEST(MemorySystem, BloatAccountsUnwrittenHugeSubpages) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  PageInfo& page = mem.page(mem.Lookup(VpnOf(start)));
  EXPECT_EQ(mem.bloat_pages(), kSubpagesPerHuge);
  mem.NoteSubpageAccess(page, 3, /*is_write=*/true);
  mem.NoteSubpageAccess(page, 4, /*is_write=*/true);
  mem.NoteSubpageAccess(page, 4, /*is_write=*/true);  // idempotent re-write
  EXPECT_EQ(mem.bloat_pages(), kSubpagesPerHuge - 2);
  EXPECT_EQ(mem.bloat_pages(), mem.TakeCensus().bloat_pages());
}

TEST(MemorySystem, RegionAtFindsExtent) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(3 * kHugePageSize, AllocOptions{});
  auto region = mem.RegionAt(start + kHugePageSize);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->first, VpnOf(start));
  EXPECT_EQ(region->second, 3 * kSubpagesPerHuge);
  EXPECT_FALSE(mem.RegionAt(start + 3 * kHugePageSize).has_value());
}

TEST(MemorySystem, ChurnKeepsConsistency) {
  MemorySystem mem(SmallConfig(4096, 16384));
  std::vector<Vaddr> regions;
  for (int round = 0; round < 50; ++round) {
    if (regions.size() < 6) {
      regions.push_back(
          mem.AllocateRegion((1 + round % 3) * kHugePageSize, AllocOptions{}));
    } else {
      mem.FreeRegion(regions.front());
      regions.erase(regions.begin());
    }
  }
  EXPECT_TRUE(mem.CheckConsistency());
  for (Vaddr r : regions) {
    mem.FreeRegion(r);
  }
  EXPECT_EQ(mem.rss_pages(), 0u);
  EXPECT_TRUE(mem.CheckConsistency());
}

TEST(MemorySystem, HugePageBitsetsRoundTripThroughASnapshot) {
  MemorySystem mem(SmallConfig());
  const Vaddr start = mem.AllocateRegion(2 * kHugePageSize, AllocOptions{});
  PageInfo& page = mem.page(mem.Lookup(VpnOf(start)));
  // Word-edge subpages, written; one more subpage only read, so the two sets
  // differ.
  for (uint64_t j : {0, 63, 64, 511}) {
    mem.NoteSubpageAccess(page, j, /*is_write=*/true);
  }
  mem.NoteSubpageAccess(page, 100, /*is_write=*/false);
  const std::bitset<kSubpagesPerHuge> accessed = page.huge->accessed;
  const std::bitset<kSubpagesPerHuge> written = page.huge->written;
  ASSERT_EQ(accessed.count(), 5u);
  ASSERT_EQ(written.count(), 4u);

  StateWriter w;
  StateCodec save(w);
  mem.VisitState(save);
  MemorySystem restored(SmallConfig());
  StateReader r(w.data());
  StateCodec load(r);
  restored.VisitState(load);
  ASSERT_TRUE(r.Done());
  const PageInfo& copy = restored.page(restored.Lookup(VpnOf(start)));
  ASSERT_NE(copy.huge, nullptr);
  EXPECT_EQ(copy.huge->accessed, accessed);
  EXPECT_EQ(copy.huge->written, written);
  EXPECT_EQ(restored.bloat_pages(), mem.bloat_pages());
  EXPECT_TRUE(restored.CheckConsistency());
  // The untouched huge page restores empty.
  const PageInfo& other =
      restored.page(restored.Lookup(VpnOf(start + kHugePageSize)));
  ASSERT_NE(other.huge, nullptr);
  EXPECT_TRUE(other.huge->accessed.none());
  EXPECT_TRUE(other.huge->written.none());

  // The stored word layout: subpage 64k+b is bit b of word k.
  const auto words = SubpageWords(written);
  EXPECT_EQ(words[0], 1ULL | 1ULL << 63);
  EXPECT_EQ(words[1], 1ULL);
  for (size_t k = 2; k < 7; ++k) {
    EXPECT_EQ(words[k], 0u) << "word " << k;
  }
  EXPECT_EQ(words[7], 1ULL << 63);
  EXPECT_EQ(SubpagesFromWords(words), written);
}

TEST(CountSubpages, MatchesBitsetCount) {
  std::bitset<kSubpagesPerHuge> set;
  EXPECT_EQ(CountSubpages(set), 0u);
  set.set();
  EXPECT_EQ(CountSubpages(set), kSubpagesPerHuge);
  for (size_t bit = 0; bit < kSubpagesPerHuge; ++bit) {
    std::bitset<kSubpagesPerHuge> single;
    single.set(bit);
    ASSERT_EQ(CountSubpages(single), 1u) << "bit " << bit;
    set.reset(bit);
    ASSERT_EQ(CountSubpages(set), set.count()) << "cleared through bit " << bit;
  }
  Rng rng(512);
  for (int trial = 0; trial < 10'000; ++trial) {
    std::bitset<kSubpagesPerHuge> random;
    const double density = rng.NextDouble();
    for (size_t bit = 0; bit < kSubpagesPerHuge; ++bit) {
      random[bit] = rng.NextBool(density);
    }
    ASSERT_EQ(CountSubpages(random), random.count()) << "trial " << trial;
  }
}

// --- Snapshot loads reject indices out of range ------------------------------

// Little-endian fields of a saved image, patched in place.
uint64_t ReadLe(const std::string& image, size_t offset, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = bytes; i-- > 0;) {
    v = v << 8 | static_cast<uint8_t>(image[offset + i]);
  }
  return v;
}
void WriteLe(std::string& image, size_t offset, size_t bytes, uint64_t v) {
  for (size_t i = 0; i < bytes; ++i, v >>= 8) {
    image[offset + i] = static_cast<char>(v & 0xFF);
  }
}

// A payload is CRC-checked, not trusted: every value a later lookup indexes
// with must be rejected by the load itself, as the buddy allocator's counts
// and frame ids are (BuddySnapshot.OutOfRangeCountsAndFrameIdsLatchFail).
TEST(MemorySystemSnapshot, OutOfRangeIndicesLatchFail) {
  MemorySystem mem(SmallConfig());
  const Vaddr freed = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const Vaddr kept = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  mem.FreeRegion(freed);  // slot 0 dead and on the free list, slot 1 live
  ASSERT_EQ(mem.Lookup(VpnOf(kept)), 1u);
  const PageInfo& page = mem.page(1);
  ASSERT_EQ(page.kind(), PageKind::kHuge);
  const uint64_t tier_frames = mem.tier(page.tier()).allocator().total_frames();

  StateWriter w;
  StateCodec save(w);
  mem.VisitState(save);
  const std::string saved = w.Take();

  // The layout (MemorySystem::VisitState): a section tag, each tier's buddy
  // image, the slots, the free slots, the page table, eleven counter words,
  // the regions, ..., the tenants, and the current tenant last.
  size_t offset = 4;
  for (TierId id : {TierId::kFast, TierId::kCapacity}) {
    const BuddyAllocator& buddy = mem.tier(id).allocator();
    uint64_t blocks = 0;
    for (uint64_t n : buddy.FreeBlockCounts()) blocks += n;
    offset += 16 + buddy.total_frames() +
              8 * (BuddyAllocator::kMaxOrder + 1 + blocks);
  }
  ASSERT_EQ(ReadLe(saved, offset, 8), 2u) << "slot count";
  // Slot 0 is a generation and a dead flag; slot 1 starts 8 + 5 bytes in.
  const size_t slot = offset + 8 + 5;
  const size_t tenant = slot + 13;  // after generation, live, base_vpn
  const size_t kind = slot + 47;
  const size_t tier = slot + 48;
  const size_t frame = slot + 49;
  const size_t free_slots = slot + 66 + 2180;  // past the huge page's meta
  ASSERT_EQ(ReadLe(saved, free_slots, 8), 1u) << "free slot count";
  const size_t page_table = free_slots + 8 + 4;
  const size_t entry = page_table + 8 + 4 * VpnOf(kept);
  const size_t regions = page_table + 8 + 4 * ReadLe(saved, page_table, 8) + 88;
  ASSERT_EQ(ReadLe(saved, regions, 8), 1u) << "region count";
  const size_t region_tenant = regions + 8 + 24;
  const size_t current_tenant = saved.size() - 2;
  ASSERT_EQ(ReadLe(saved, kind, 1), 1u);
  ASSERT_EQ(ReadLe(saved, tier, 1), static_cast<uint64_t>(page.tier()));
  ASSERT_EQ(ReadLe(saved, frame, 8), page.frame());
  ASSERT_EQ(ReadLe(saved, free_slots + 8, 4), 0u);
  ASSERT_EQ(ReadLe(saved, entry, 4), 1u);
  ASSERT_EQ(ReadLe(saved, region_tenant, 2), 0u);

  constexpr size_t kUnedited = ~size_t{0};
  const auto load = [&](size_t at, size_t bytes, uint64_t value) {
    std::string image = saved;
    if (at != kUnedited) {
      WriteLe(image, at, bytes, value);
    }
    MemorySystem fresh(SmallConfig());
    StateReader r(image);
    StateCodec codec(r);
    fresh.VisitState(codec);
    return !r.Done();
  };
  EXPECT_FALSE(load(kUnedited, 0, 0)) << "unedited image must load";
  EXPECT_TRUE(load(kind, 1, 2));                  // no such PageKind
  EXPECT_TRUE(load(tier, 1, kNumTiers));          // tiers_[2]
  EXPECT_TRUE(load(tenant, 2, 1));                // one tenant registered
  EXPECT_TRUE(load(frame, 8, tier_frames));       // past the tier
  EXPECT_TRUE(load(frame, 8, tier_frames - 1));   // the huge page overruns it
  EXPECT_TRUE(load(frame, 8, ~0ULL));
  EXPECT_TRUE(load(free_slots + 8, 4, 2));        // pages_[2] of two slots
  EXPECT_TRUE(load(entry, 4, 2));                 // Lookup would return 2
  EXPECT_TRUE(load(region_tenant, 2, 1));
  EXPECT_TRUE(load(current_tenant, 2, 1));
}

}  // namespace
}  // namespace memtis
