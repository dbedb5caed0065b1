// The metric hot paths (huge_page_ratio, bloat_pages, per-tier mapped-4k)
// are O(1) counters maintained at every page-table mutation. These tests pin
// them to the audit layer's census and to a test-local oracle of per-counter
// recounts, across randomized mutation sequences and full engine runs, so any
// future mutation path that forgets to update a counter fails here rather
// than skewing published metrics.

#include <gtest/gtest.h>

#include <vector>

#include "src/audit/audit.h"
#include "src/common/rng.h"
#include "src/mem/memory_system.h"
#include "src/memtis/memtis_policy.h"
#include "src/workloads/registry.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

// --- Oracle -------------------------------------------------------------------
//
// One loop per counter, each walking every page slot through the public
// accessors: the definition-level recounts the census must agree with.

uint64_t RecountMapped4kInTier(MemorySystem& mem, TierId id) {
  uint64_t mapped = 0;
  for (PageIndex i = 0; i < mem.page_slots(); ++i) {
    const PageInfo* p = mem.LivePageAt(i);
    if (p != nullptr && p->tier() == id) {
      mapped += p->size_pages();
    }
  }
  return mapped;
}

uint64_t RecountTenantMapped4k(MemorySystem& mem, TenantId tenant, TierId id) {
  uint64_t mapped = 0;
  for (PageIndex i = 0; i < mem.page_slots(); ++i) {
    const PageInfo* p = mem.LivePageAt(i);
    if (p != nullptr && p->tenant == tenant && p->tier() == id) {
      mapped += p->size_pages();
    }
  }
  return mapped;
}

uint64_t RecountLiveHugePages(MemorySystem& mem) {
  uint64_t huge = 0;
  for (PageIndex i = 0; i < mem.page_slots(); ++i) {
    const PageInfo* p = mem.LivePageAt(i);
    if (p != nullptr && p->kind() == PageKind::kHuge) {
      ++huge;
    }
  }
  return huge;
}

uint64_t RecountWrittenSubpages(MemorySystem& mem) {
  uint64_t written = 0;
  for (PageIndex i = 0; i < mem.page_slots(); ++i) {
    const PageInfo* p = mem.LivePageAt(i);
    if (p != nullptr && p->kind() == PageKind::kHuge) {
      written += p->huge->written.count();
    }
  }
  return written;
}

uint64_t RecountBloatPages(MemorySystem& mem) {
  uint64_t bloat = 0;
  for (PageIndex i = 0; i < mem.page_slots(); ++i) {
    const PageInfo* p = mem.LivePageAt(i);
    if (p != nullptr && p->kind() == PageKind::kHuge) {
      bloat += kSubpagesPerHuge - p->huge->written.count();
    }
  }
  return bloat;
}

// Asserts census == oracle == tracked counter for every incremental counter.
void ExpectCountersMatchRecounts(MemorySystem& mem) {
  const MemCensus census = mem.TakeCensus();
  EXPECT_EQ(census.slot_error, "");
  EXPECT_EQ(census.live_huge_pages, RecountLiveHugePages(mem));
  EXPECT_EQ(mem.live_huge_pages(), census.live_huge_pages);
  EXPECT_EQ(census.written_subpages, RecountWrittenSubpages(mem));
  EXPECT_EQ(mem.written_subpages(), census.written_subpages);
  EXPECT_EQ(census.bloat_pages(), RecountBloatPages(mem));
  EXPECT_EQ(mem.bloat_pages(), census.bloat_pages());
  uint64_t mapped = 0;
  for (int t = 0; t < kNumTiers; ++t) {
    const TierId tier = static_cast<TierId>(t);
    EXPECT_EQ(census.mapped_4k_tier[t], RecountMapped4kInTier(mem, tier)) << "tier " << t;
    EXPECT_EQ(mem.mapped_4k_in_tier(tier), census.mapped_4k_tier[t]) << "tier " << t;
    mapped += census.mapped_4k_tier[t];
    for (TenantId id = 0; id < mem.tenant_count(); ++id) {
      const uint64_t recount = census.tenant_mapped_4k[id * kNumTiers + t];
      EXPECT_EQ(recount, RecountTenantMapped4k(mem, id, tier))
          << "tenant " << id << " tier " << t;
      EXPECT_EQ(mem.tenant_mapped_4k(id, tier), recount)
          << "tenant " << id << " tier " << t;
    }
  }
  EXPECT_EQ(census.mapped_4k, mapped);
  EXPECT_EQ(mem.mapped_4k_pages(), census.mapped_4k);
  EXPECT_EQ(mem.live_page_count(), census.live_pages);
  EXPECT_TRUE(census.unregistered_owner.empty());
  EXPECT_TRUE(census.huge_faults.empty());
  EXPECT_EQ(census.buddy_error[0] + census.buddy_error[1], "");
  EXPECT_EQ(mem.huge_meta_allocated(),
            mem.huge_meta_pooled() + mem.live_huge_pages());
}

TEST(IncrementalCounters, MatchRecountsUnderRandomMutations) {
  Rng rng(12345);
  MemorySystem mem(MemoryConfig{.fast_frames = 8192, .capacity_frames = 16384});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  std::vector<Vaddr> regions;

  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 30 || regions.empty()) {
      if (mem.tier(TierId::kFast).free_frames() +
              mem.tier(TierId::kCapacity).free_frames() >
          4 * kSubpagesPerHuge) {
        AllocOptions opts;
        opts.preferred = rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
        opts.use_thp = rng.NextBool(0.7);
        regions.push_back(
            mem.AllocateRegion((1 + rng.NextBelow(3)) * kHugePageSize, opts));
      }
    } else if (op < 45) {
      const size_t pick = rng.NextBelow(regions.size());
      mem.FreeRegion(regions[pick]);
      regions[pick] = regions.back();
      regions.pop_back();
    } else if (op < 60) {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage) {
        mem.Migrate(index,
                    rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity);
      }
    } else if (op < 75) {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage && mem.page(index).kind() == PageKind::kHuge) {
        PageInfo& page = mem.page(index);
        for (int j = 0; j < 32; ++j) {
          mem.NoteSubpageAccess(page, rng.NextBelow(kSubpagesPerHuge),
                                /*is_write=*/rng.NextBool(0.7));
        }
        mem.SplitHugePage(index, [&](uint32_t) {
          return rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
        });
      }
    } else if (op < 85) {
      // Collapse the first region whose full 512-vpn span is live base pages.
      for (const Vaddr base : regions) {
        if (mem.CollapseToHuge(VpnOf(base),
                               rng.NextBool(0.5) ? TierId::kFast
                                                 : TierId::kCapacity)) {
          break;
        }
      }
    } else {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const auto region = mem.RegionAt(base);
      ASSERT_TRUE(region.has_value());
      const Vpn vpn = region->first + rng.NextBelow(region->second);
      if (mem.Lookup(vpn) == kInvalidPage) {
        mem.DemandFault(vpn, AllocOptions{});
      }
    }
    if ((step & 31) == 0) {
      ExpectCountersMatchRecounts(mem);
      ASSERT_TRUE(mem.CheckConsistency()) << "step " << step;
    }
  }
  ExpectCountersMatchRecounts(mem);

  // Audit-layer view of the same contract.
  AuditReport report;
  AuditCollector out(&report);
  CheckIncrementalCounters(mem, out);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);

  // Drain everything: counters must return to zero exactly.
  while (!regions.empty()) {
    mem.FreeRegion(regions.back());
    regions.pop_back();
  }
  EXPECT_EQ(mem.live_huge_pages(), 0u);
  EXPECT_EQ(mem.written_subpages(), 0u);
  EXPECT_EQ(mem.bloat_pages(), 0u);
  for (int t = 0; t < kNumTiers; ++t) {
    EXPECT_EQ(mem.mapped_4k_in_tier(static_cast<TierId>(t)), 0u);
  }
  EXPECT_EQ(mem.huge_meta_allocated(), mem.huge_meta_pooled());
}

TEST(IncrementalCounters, MatchRecountsAfterEngineRun) {
  // Full MEMTIS run: every mutation path the engine exercises (demand faults,
  // migrations, splits, collapses, THP promotion) must keep counters in sync.
  auto workload = MakeWorkload("btree", 0.1);
  MemtisConfig cfg = MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                                  workload->footprint_bytes() / 3);
  MemtisPolicy policy(cfg);
  EngineOptions opts;
  opts.max_accesses = 400'000;
  Engine engine(MachineFor(*workload, 1.0 / 3.0), policy, opts);
  engine.Run(*workload);

  MemorySystem& mem = engine.mem();
  ExpectCountersMatchRecounts(mem);
  EXPECT_GT(mem.live_huge_pages(), 0u);  // THP path actually exercised

  AuditReport report;
  AuditCollector out(&report);
  CheckIncrementalCounters(mem, out);
  EXPECT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(IncrementalCounters, HugePageRatioAndBloatMatchScans) {
  // The O(1) formulas behind the public metrics must be bit-identical to the
  // definition-level scans (ratio is a double: same numerator/denominator
  // means the same bits).
  MemorySystem mem(MemoryConfig{.fast_frames = 4096, .capacity_frames = 4096});
  AllocOptions huge_opts;
  huge_opts.use_thp = true;
  const Vaddr huge = mem.AllocateRegion(2 * kHugePageSize, huge_opts);
  AllocOptions base_opts;
  base_opts.use_thp = false;
  mem.AllocateRegion(64 * kPageSize, base_opts);

  PageInfo& hp = mem.page(mem.Lookup(VpnOf(huge)));
  ASSERT_EQ(hp.kind(), PageKind::kHuge);
  for (uint64_t j = 0; j < 100; ++j) {
    mem.NoteSubpageAccess(hp, j, /*is_write=*/j % 2 == 0);
  }
  EXPECT_EQ(mem.bloat_pages(), RecountBloatPages(mem));
  EXPECT_EQ(mem.bloat_pages(), 2 * kSubpagesPerHuge - 50);

  // Regions are huge-page-granular, so recount the denominator rather than
  // assuming the base region's mapped size.
  const uint64_t mapped = RecountMapped4kInTier(mem, TierId::kFast) +
                          RecountMapped4kInTier(mem, TierId::kCapacity);
  const double expect_ratio =
      static_cast<double>(RecountLiveHugePages(mem) * kSubpagesPerHuge) /
      static_cast<double>(mapped);
  EXPECT_EQ(mem.huge_page_ratio(), expect_ratio);
}

}  // namespace
}  // namespace memtis
