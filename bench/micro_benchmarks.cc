// google-benchmark micro-benchmarks for the hot paths of the simulator and
// the MEMTIS data structures.

#include <benchmark/benchmark.h>

#include "src/access/pebs_sampler.h"
#include "src/common/rng.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/tlb.h"
#include "src/memtis/histogram.h"
#include "src/memtis/policy_registry.h"
#include "src/sim/engine.h"
#include "src/workloads/synthetic.h"

namespace memtis {
namespace {

void BM_HistogramUpdate(benchmark::State& state) {
  AccessHistogram hist;
  hist.Add(3, 1000);
  uint64_t hotness = 1;
  for (auto _ : state) {
    const int from = AccessHistogram::BinOf(hotness);
    const int to = AccessHistogram::BinOf(hotness + 1);
    hist.Move(from, to, 1);
    hist.Move(to, from, 1);
    hotness = hotness * 5 % 65521 + 1;
  }
}
BENCHMARK(BM_HistogramUpdate);

void BM_HistogramThresholds(benchmark::State& state) {
  AccessHistogram hist;
  uint64_t seed = 7;
  for (int b = 0; b < AccessHistogram::kBins; ++b) {
    hist.Add(b, SplitMix64(seed) % 10000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.ComputeThresholds(20000, 0.9));
  }
}
BENCHMARK(BM_HistogramThresholds);

void BM_HistogramCool(benchmark::State& state) {
  AccessHistogram hist;
  for (int b = 0; b < AccessHistogram::kBins; ++b) {
    hist.Add(b, 1000);
  }
  for (auto _ : state) {
    hist.Cool();
    hist.Add(8, 1000);  // keep it populated
  }
}
BENCHMARK(BM_HistogramCool);

void BM_TlbAccess(benchmark::State& state) {
  Tlb tlb;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Access(rng.Next() % 16384, PageKind::kBase));
  }
}
BENCHMARK(BM_TlbAccess);

// Paper shapes: n=24, s=0.9 (liblinear/bwaves regions, inside the sampler's
// table) and n=3072, s=1.1 (Graph500 keys, whose tail passes the rank cap).
void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)),
                   static_cast<double>(state.range(1)) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Args({24, 9})->Args({3072, 11});

void BM_PebsOnEvent(benchmark::State& state) {
  PebsSampler sampler;
  uint64_t now_ns = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.OnEvent(SampleType::kLlcLoadMiss, now_ns));
    now_ns += 10;
  }
}
BENCHMARK(BM_PebsOnEvent);

void BM_BuddyAllocFree(benchmark::State& state) {
  BuddyAllocator buddy(1 << 16);
  for (auto _ : state) {
    auto frame = buddy.Allocate(0);
    benchmark::DoNotOptimize(frame);
    buddy.Free(*frame, 0);
  }
}
BENCHMARK(BM_BuddyAllocFree);

void BM_EngineAccessPipeline(benchmark::State& state) {
  // End-to-end per-access cost of the simulator under the full MEMTIS policy.
  SyntheticWorkload::Params p;
  p.footprint_bytes = 32ull << 20;
  p.zipf_s = 1.0;
  p.chunk_pages = kSubpagesPerHuge;
  SyntheticWorkload workload(p);
  auto policy = MakePolicy("memtis", p.footprint_bytes, p.footprint_bytes / 3);
  EngineOptions opts;
  opts.max_accesses = 1ull << 60;
  Engine engine(MakeNvmMachine(p.footprint_bytes / 3, p.footprint_bytes * 2), *policy,
                opts);
  Rng rng(11);
  App app(engine);
  workload.Setup(app, rng);
  uint64_t done = 0;
  for (auto _ : state) {
    workload.Step(app, rng);
    done += 256;
  }
  state.SetItemsProcessed(static_cast<int64_t>(done));
}
BENCHMARK(BM_EngineAccessPipeline);

}  // namespace
}  // namespace memtis

BENCHMARK_MAIN();
