#include "src/mem/tlb.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace memtis {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb tlb;
  EXPECT_FALSE(tlb.Access(100, PageKind::kBase));
  EXPECT_TRUE(tlb.Access(100, PageKind::kBase));
  EXPECT_EQ(tlb.stats().base_misses, 1u);
  EXPECT_EQ(tlb.stats().base_hits, 1u);
}

TEST(Tlb, HugeEntryCoversAllSubpages) {
  Tlb tlb;
  const Vpn base = 512 * 7;
  EXPECT_FALSE(tlb.Access(base, PageKind::kHuge));
  // Any subpage of the same huge page hits the same entry.
  EXPECT_TRUE(tlb.Access(base + 1, PageKind::kHuge));
  EXPECT_TRUE(tlb.Access(base + 511, PageKind::kHuge));
  EXPECT_EQ(tlb.stats().huge_misses, 1u);
  EXPECT_EQ(tlb.stats().huge_hits, 2u);
}

TEST(Tlb, ConflictEviction) {
  Tlb tlb(TlbConfig{.base_entries = 16, .huge_entries = 4});
  EXPECT_FALSE(tlb.Access(0, PageKind::kBase));
  EXPECT_FALSE(tlb.Access(16, PageKind::kBase));  // same direct-mapped slot
  EXPECT_FALSE(tlb.Access(0, PageKind::kBase));   // evicted by the conflict
}

TEST(Tlb, HugeReachExceedsBaseReach) {
  // The core THP benefit: the same footprint misses far less with huge pages.
  const uint64_t pages = 16384;
  Tlb base_tlb(TlbConfig{.base_entries = 1024, .huge_entries = 64});
  Tlb huge_tlb(TlbConfig{.base_entries = 1024, .huge_entries = 64});
  uint64_t state = 99;
  for (int i = 0; i < 100000; ++i) {
    const Vpn vpn = SplitMix64(state) % pages;
    base_tlb.Access(vpn, PageKind::kBase);
    huge_tlb.Access(vpn, PageKind::kHuge);
  }
  EXPECT_LT(huge_tlb.stats().miss_ratio(), base_tlb.stats().miss_ratio() / 5);
}

TEST(Tlb, ShootdownInvalidatesRange) {
  Tlb tlb;
  tlb.Access(10, PageKind::kBase);
  tlb.Access(11, PageKind::kBase);
  tlb.Access(5000, PageKind::kBase);
  tlb.Shootdown(10, 2);
  EXPECT_FALSE(tlb.Access(10, PageKind::kBase));
  EXPECT_FALSE(tlb.Access(11, PageKind::kBase));
  EXPECT_TRUE(tlb.Access(5000, PageKind::kBase));
  EXPECT_EQ(tlb.stats().shootdowns, 1u);
  EXPECT_EQ(tlb.stats().invalidated_entries, 2u);
}

TEST(Tlb, ShootdownInvalidatesHugeEntry) {
  Tlb tlb;
  tlb.Access(512, PageKind::kHuge);
  tlb.Shootdown(512, 512);
  EXPECT_FALSE(tlb.Access(512, PageKind::kHuge));
}

TEST(Tlb, FlushClearsEverything) {
  Tlb tlb;
  tlb.Access(1, PageKind::kBase);
  tlb.Access(512, PageKind::kHuge);
  tlb.Flush();
  EXPECT_FALSE(tlb.Access(1, PageKind::kBase));
  EXPECT_FALSE(tlb.Access(512, PageKind::kHuge));
}

// ForEachValidEntry skips all-zero groups of eight tags; entries at group
// edges, in a group with one live tag, and in tables smaller than a group
// must all still be reported, in slot order.
TEST(Tlb, ForEachValidEntryReportsEveryLiveTagInSlotOrder) {
  using Entries = std::vector<std::pair<Vpn, PageKind>>;
  const auto entries = [](const Tlb& tlb) {
    Entries out;
    tlb.ForEachValidEntry([&](Vpn vpn, PageKind kind) { out.emplace_back(vpn, kind); });
    return out;
  };
  Tlb tlb;  // 2048 base slots, 128 huge slots
  EXPECT_TRUE(entries(tlb).empty());
  for (Vpn vpn : {2047, 0, 7, 8, 15, 1000}) {
    tlb.Access(vpn, PageKind::kBase);
  }
  for (Vpn huge : {127, 0, 9}) {
    tlb.Access(huge << kHugeOrder, PageKind::kHuge);
  }
  EXPECT_EQ(entries(tlb), (Entries{{0, PageKind::kBase},
                                   {7, PageKind::kBase},
                                   {8, PageKind::kBase},
                                   {15, PageKind::kBase},
                                   {1000, PageKind::kBase},
                                   {2047, PageKind::kBase},
                                   {0, PageKind::kHuge},
                                   {9 << kHugeOrder, PageKind::kHuge},
                                   {127 << kHugeOrder, PageKind::kHuge}}));

  Tlb tiny(TlbConfig{.base_entries = 2, .huge_entries = 1});
  tiny.Access(3, PageKind::kBase);
  tiny.Access(5 << kHugeOrder, PageKind::kHuge);
  EXPECT_EQ(entries(tiny),
            (Entries{{3, PageKind::kBase}, {5 << kHugeOrder, PageKind::kHuge}}));
}

TEST(Tlb, LargeRangeShootdownScansWholeArray) {
  Tlb tlb(TlbConfig{.base_entries = 64, .huge_entries = 8});
  for (Vpn v = 0; v < 64; ++v) {
    tlb.Access(v, PageKind::kBase);
  }
  tlb.Shootdown(0, 1u << 20);  // range wider than the TLB
  EXPECT_EQ(tlb.stats().invalidated_entries, 64u);
}

}  // namespace
}  // namespace memtis
