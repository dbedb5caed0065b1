// hotpath_bench: wall-clock microbenchmarks of the simulator's hot paths.
//
// Tracked benchmarks (see perf_util.h for the JSON schema):
//   access_replay         engine access pipeline + MEMTIS sampling, ns/access
//                         (scalar path: the btree model emits no runs)
//   access_replay_batched batched-replay pipeline (DoAccessRun) over the
//                         run-emitting stream workload, ns/access
//   access_replay_memtis/_hemem/_autotiering
//                         the same stream replay per policy; autotiering has
//                         no absorb hook, so it doubles as the scalar
//                         baseline over the identical address stream
//   access_replay_sharded2/_sharded4
//                         end-to-end ShardedEngine replay (N shards, N
//                         threads, merge included), ns/access
//   cooling_scan          one MemtisPolicy cooling event over a live heap
//   metrics_recount       the per-snapshot metric getters (huge_page_ratio,
//                         bloat_pages) that every timeline point pays for
//   split_collapse_churn  one huge-page split + re-collapse round trip
//   exchange_churn        one ExchangePages swap with the fast tier full
//   migrate_evict_churn   the demote-then-promote pair the swap replaces
//   zipf_sample           one ZipfSampler draw, alternating a table-covered
//                         shape (n=24) with one whose tail passes the table's
//                         rank cap (n=3072)
//   audit_tick            one InvariantAuditor::AuditNow (cheap checks, as on
//                         an ordinary audited tick) over a warmed MEMTIS engine
//   audit_tick_expensive  the same with the expensive checks included (every
//                         16th audited tick and the run-end audit)
//   snapshot_save         one checkpoint of a mid-run btree/MEMTIS cell at 1:2:
//                         payload build + file-image encode (CRC included),
//                         no file I/O
//   snapshot_restore      the matching resume: image decode + every
//                         component's LoadState, no file I/O
//   sweep_wallclock       a small multi-job runner sweep through the pool
//
// Usage: hotpath_bench [--smoke] [--benchmarks=a,b] [--repeat=N] [--out=FILE]
//                      [--force]
//   --smoke   tiny iteration counts (the tier-1 ctest perf smoke); never
//             writes a file.
//   --benchmarks  run only the named benchmarks; an unknown name is a usage
//             error (exit 2).
//   --repeat  run each benchmark N times and keep the fastest (best-of-N
//             rejects scheduler/frequency noise on shared hosts; default 1).
//   --out     also write the JSON to FILE — refused unless the binary was
//             built in a Release tree (or --force), so tracked BENCH numbers
//             never come from unoptimized builds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/perf/perf_util.h"
#include "src/audit/audit.h"
#include "src/common/rng.h"
#include "src/memtis/memtis_policy.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/checkpoint_runner.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/snapshot/snapshot_file.h"
#include "src/workloads/registry.h"

#ifndef MEMTIS_PERF_BUILD_TYPE
#define MEMTIS_PERF_BUILD_TYPE "unknown"
#endif

namespace memtis {
namespace {

// A live MEMTIS engine state shared by the engine-level benchmarks: the
// btree model (huge pages with skewed subpage use) at 1:3 fast:capacity.
struct MemtisState {
  std::unique_ptr<Workload> workload;
  MemtisConfig config;
  MemtisPolicy policy;
  Engine engine;

  explicit MemtisState(uint64_t warmup_accesses)
      : workload(MakeWorkload("btree", 0.12)),
        config(MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                            workload->footprint_bytes() / 3)),
        policy(config),
        engine(MachineForFootprint(workload->footprint_bytes()), policy,
               [&] {
                 EngineOptions opts;
                 opts.max_accesses = warmup_accesses;
                 return opts;
               }()) {
    engine.Run(*workload);
  }

  static MachineConfig MachineForFootprint(uint64_t footprint) {
    return MakeNvmMachine(footprint / 3, footprint + footprint / 2);
  }
};

PerfResult BenchAccessReplay(bool smoke) {
  const uint64_t warmup = smoke ? 10'000 : 200'000;
  const uint64_t timed = smoke ? 10'000 : 2'000'000;
  MemtisState state(warmup);
  state.engine.set_max_accesses(warmup + timed);
  const uint64_t t0 = MonotonicNowNs();
  state.engine.Run(*state.workload);
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(state.engine.metrics().accesses);
  return PerfResult{"access_replay", "access",
                    state.engine.metrics().accesses - warmup, t1 - t0};
}

// Replays the run-emitting stream workload under the named policy: the
// batched path for policies with an absorb hook (memtis, hemem), the scalar
// fallback otherwise (autotiering) — same address stream either way.
PerfResult BenchStreamReplay(const char* bench_name, const char* policy_name,
                             bool smoke) {
  const uint64_t warmup = smoke ? 10'000 : 200'000;
  const uint64_t timed = smoke ? 10'000 : 2'000'000;
  auto workload = MakeWorkload("stream", 0.25);
  const uint64_t footprint = workload->footprint_bytes();
  auto policy = MakePolicy(policy_name, footprint, footprint / 3);
  EngineOptions opts;
  opts.max_accesses = warmup;
  Engine engine(MemtisState::MachineForFootprint(footprint), *policy, opts);
  engine.Run(*workload);
  engine.set_max_accesses(warmup + timed);
  const uint64_t t0 = MonotonicNowNs();
  engine.Run(*workload);
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(engine.metrics().accesses);
  return PerfResult{bench_name, "access", engine.metrics().accesses - warmup,
                    t1 - t0};
}

PerfResult BenchAccessReplayBatched(bool smoke) {
  return BenchStreamReplay("access_replay_batched", "memtis", smoke);
}

PerfResult BenchAccessReplayMemtis(bool smoke) {
  return BenchStreamReplay("access_replay_memtis", "memtis", smoke);
}

PerfResult BenchAccessReplayHemem(bool smoke) {
  return BenchStreamReplay("access_replay_hemem", "hemem", smoke);
}

PerfResult BenchAccessReplayAutotiering(bool smoke) {
  return BenchStreamReplay("access_replay_autotiering", "autotiering", smoke);
}

// End-to-end sharded replay: N shards on N threads, including slicing, engine
// construction, and the deterministic merge — the per-cell speedup knob.
PerfResult BenchShardedReplay(const char* bench_name, uint32_t shards,
                              bool smoke) {
  const uint64_t accesses = smoke ? 20'000 : 2'000'000;
  auto workload = MakeWorkload("stream", 0.25);
  const uint64_t footprint = workload->footprint_bytes();
  const uint64_t slice = footprint / shards;
  PolicyFactory factory = [slice]() {
    return MakePolicy("memtis", slice, slice / 3);
  };
  ShardedOptions sopts;
  sopts.shards = shards;
  sopts.threads = shards;
  sopts.engine.max_accesses = accesses;
  ShardedEngine sharded(MemtisState::MachineForFootprint(footprint), factory,
                        sopts);
  const uint64_t t0 = MonotonicNowNs();
  const Metrics merged = sharded.Run(*workload);
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(merged.accesses);
  return PerfResult{bench_name, "access", merged.accesses, t1 - t0};
}

PerfResult BenchAccessReplaySharded2(bool smoke) {
  return BenchShardedReplay("access_replay_sharded2", 2, smoke);
}

PerfResult BenchAccessReplaySharded4(bool smoke) {
  return BenchShardedReplay("access_replay_sharded4", 4, smoke);
}

PerfResult BenchCoolingScan(bool smoke) {
  const uint64_t iters = smoke ? 5 : 400;
  // Warm up enough that the heap is populated and some subpages carry
  // samples; repeated forced coolings quickly drive most counters to zero,
  // which is exactly the all-cold regime real cooling scans spend most of
  // their time in.
  MemtisState state(smoke ? 20'000 : 300'000);
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    state.policy.TestOnlyForceCooling(state.engine.ctx());
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(static_cast<uint64_t>(state.policy.stats().coolings));
  return PerfResult{"cooling_scan", "cooling_scan", iters, t1 - t0};
}

PerfResult BenchMetricsRecount(bool smoke) {
  // A heap shaped like a real mid-run snapshot: many huge pages, a block of
  // them split into base pages (with demand-fault holes).
  const uint64_t huge_regions = smoke ? 32 : 384;
  const uint64_t split_every = 3;  // ~1/3 of huge pages splintered
  MemorySystem mem(MemoryConfig{
      .fast_frames = huge_regions * kSubpagesPerHuge,
      .capacity_frames = huge_regions * kSubpagesPerHuge});
  std::vector<Vaddr> regions;
  for (uint64_t i = 0; i < huge_regions; ++i) {
    regions.push_back(mem.AllocateRegion(kHugePageSize, AllocOptions{}));
  }
  for (uint64_t i = 0; i < huge_regions; i += split_every) {
    const PageIndex index = mem.Lookup(VpnOf(regions[i]));
    PageInfo& page = mem.page(index);
    for (uint64_t j = 0; j < kSubpagesPerHuge; j += 2) {
      mem.NoteSubpageAccess(page, j, /*is_write=*/true);
    }
    mem.SplitHugePage(index, [](uint32_t j) {
      return j % 4 == 0 ? TierId::kFast : TierId::kCapacity;
    });
  }
  const uint64_t iters = smoke ? 50 : 20'000;
  double acc = 0.0;
  uint64_t bloat = 0;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    acc += mem.huge_page_ratio();
    bloat += mem.bloat_pages();
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(acc);
  Blackhole(bloat);
  return PerfResult{"metrics_recount", "snapshot_metrics", iters, t1 - t0};
}

PerfResult BenchSplitCollapseChurn(bool smoke) {
  const uint64_t cycles = smoke ? 20 : 4000;
  MemorySystem mem(MemoryConfig{.fast_frames = 4 * kSubpagesPerHuge,
                                .capacity_frames = 4 * kSubpagesPerHuge});
  const Vaddr start = mem.AllocateRegion(kHugePageSize, AllocOptions{});
  const Vpn vpn = VpnOf(start);
  {
    PageInfo& page = mem.page(mem.Lookup(vpn));
    for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
      mem.NoteSubpageAccess(page, j, /*is_write=*/true);
    }
  }
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < cycles; ++i) {
    const PageIndex index = mem.Lookup(vpn);
    mem.SplitHugePage(index, [](uint32_t) { return TierId::kFast; });
    if (!mem.CollapseToHuge(vpn, TierId::kFast)) {
      std::fprintf(stderr, "split_collapse_churn: collapse failed\n");
      break;
    }
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(mem.migration_stats().splits);
  return PerfResult{"split_collapse_churn", "churn_cycle", cycles, t1 - t0};
}

// Shared setup for the promotion-under-pressure pair: a fast tier exactly
// filled by one base-page region, a capacity region supplying the hot page,
// and a TLB so both paths pay their shootdowns.
struct ChurnState {
  MemorySystem mem;
  Tlb tlb;
  PageIndex hot;   // capacity-tier page wanting promotion
  PageIndex cold;  // fast-tier victim

  ChurnState()
      : mem(MemoryConfig{.fast_frames = kSubpagesPerHuge,
                         .capacity_frames = 4 * kSubpagesPerHuge}) {
    mem.AttachTlb(&tlb);
    AllocOptions opts;
    opts.use_thp = false;
    opts.preferred = TierId::kFast;
    const Vaddr fast_base = mem.AllocateRegion(kHugePageSize, opts);
    opts.preferred = TierId::kCapacity;
    const Vaddr cap_base = mem.AllocateRegion(kHugePageSize, opts);
    hot = mem.Lookup(VpnOf(cap_base));
    cold = mem.Lookup(VpnOf(fast_base));
  }
};

PerfResult BenchExchangeChurn(bool smoke) {
  const uint64_t cycles = smoke ? 1'000 : 2'000'000;
  ChurnState state;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < cycles; ++i) {
    state.mem.ExchangePages(state.hot, state.cold);
    std::swap(state.hot, state.cold);  // last swap's victim is the next hot
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(state.mem.migration_stats().exchanges);
  return PerfResult{"exchange_churn", "exchange", cycles, t1 - t0};
}

PerfResult BenchMigrateEvictChurn(bool smoke) {
  // The path exchange replaces: demote the victim to free a fast frame, then
  // promote the hot page into it — two buddy free/alloc round trips and the
  // same two shootdowns per cycle.
  const uint64_t cycles = smoke ? 1'000 : 2'000'000;
  ChurnState state;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < cycles; ++i) {
    state.mem.Migrate(state.cold, TierId::kCapacity);
    state.mem.Migrate(state.hot, TierId::kFast);
    std::swap(state.hot, state.cold);
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(state.mem.migration_stats().promoted_base);
  return PerfResult{"migrate_evict_churn", "migrate_evict", cycles, t1 - t0};
}

// Zipf draws on two paper shapes, alternating: n=24, s=0.9 (the liblinear
// and bwaves regions, all inside the sampler's table) and n=3072, s=1.1 (the
// Graph500 key sampler, whose tail lies beyond the table's rank cap).
PerfResult BenchZipfSample(bool smoke) {
  const uint64_t iters = smoke ? 1'000 : 2'000'000;
  const ZipfSampler head(24, 0.9);
  const ZipfSampler tail(3072, 1.1);
  Rng rng(5);
  uint64_t sum = 0;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    sum += head.Sample(rng);
    sum += tail.Sample(rng);
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(sum);
  return PerfResult{"zipf_sample", "draw", 2 * iters, t1 - t0};
}

// Full invariant audits of one warmed MEMTIS heap (btree at 1:3): the cost
// every audited tick of an auditor-armed run pays.
PerfResult BenchAuditTick(const char* bench_name, bool include_expensive,
                          bool smoke) {
  const uint64_t iters = smoke ? 3 : (include_expensive ? 100 : 400);
  MemtisState state(smoke ? 20'000 : 300'000);
  InvariantAuditor auditor;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    auditor.AuditNow(state.engine, include_expensive);
  }
  const uint64_t t1 = MonotonicNowNs();
  if (!auditor.report().ok()) {
    std::fprintf(stderr, "%s: audit violation on a healthy heap\n%s\n",
                 bench_name, auditor.report().ToJson(2).c_str());
  }
  Blackhole(auditor.report().checks_run);
  return PerfResult{bench_name, "audit", iters, t1 - t0};
}

PerfResult BenchAuditTickCheap(bool smoke) {
  return BenchAuditTick("audit_tick", /*include_expensive=*/false, smoke);
}

PerfResult BenchAuditTickExpensive(bool smoke) {
  return BenchAuditTick("audit_tick_expensive", /*include_expensive=*/true,
                        smoke);
}

// A checkpointable cell as the runner builds one: btree at 1:2 (fast =
// footprint / 3) and the runner's default footprint scale, run to
// `accesses` (snapshot_* use half a campaign cell's 300k budget).
struct SnapshotCell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  std::unique_ptr<Engine> engine;

  explicit SnapshotCell(uint64_t accesses)
      : workload(MakeWorkload("btree", BenchFootprintScale())) {
    const uint64_t footprint = workload->footprint_bytes();
    policy = MakePolicy("memtis", footprint, footprint / 3);
    EngineOptions opts;
    opts.max_accesses = accesses;
    engine = std::make_unique<Engine>(
        MakeNvmMachine(footprint / 3, footprint + footprint / 2), *policy, opts);
    if (accesses != 0) {
      engine->Run(*workload);
    }
  }
};

SnapshotBlob CellBlob(const SnapshotCell& cell) {
  SnapshotBlob blob;
  blob.fingerprint = "0123456789abcdef";
  blob.sequence = 2;
  blob.payload =
      BuildSnapshotPayload(*cell.engine, *cell.policy, *cell.workload, nullptr);
  return blob;
}

PerfResult BenchSnapshotSave(bool smoke) {
  const uint64_t iters = smoke ? 2 : 300;
  const SnapshotCell cell(smoke ? 20'000 : 150'000);
  uint64_t bytes = 0;
  const uint64_t t0 = MonotonicNowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    bytes += EncodeSnapshot(CellBlob(cell)).size();
  }
  const uint64_t t1 = MonotonicNowNs();
  Blackhole(bytes);
  return PerfResult{"snapshot_save", "snapshot", iters, t1 - t0};
}

PerfResult BenchSnapshotRestore(bool smoke) {
  const uint64_t iters = smoke ? 2 : 300;
  const std::string image =
      EncodeSnapshot(CellBlob(SnapshotCell(smoke ? 20'000 : 150'000)));
  uint64_t timed_ns = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    SnapshotCell fresh(0);  // built untimed, as a resuming child builds it
    const uint64_t t0 = MonotonicNowNs();
    SnapshotBlob blob;
    const bool ok =
        DecodeSnapshot(image, &blob, nullptr) &&
        RestoreFromPayload(blob.payload, *fresh.engine, *fresh.policy,
                           *fresh.workload, nullptr);
    timed_ns += MonotonicNowNs() - t0;
    if (!ok) {
      std::fprintf(stderr, "snapshot_restore: the snapshot did not restore\n");
      std::exit(1);
    }
  }
  return PerfResult{"snapshot_restore", "snapshot", iters, timed_ns};
}

PerfResult BenchSweepWallclock(bool smoke) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "hemem"};
  sweep.benchmarks = {"btree", "silo"};
  sweep.seeds = smoke ? 1 : 2;
  sweep.accesses = smoke ? 5'000 : 150'000;
  ThreadPool pool;
  const uint64_t t0 = MonotonicNowNs();
  const SweepRun run = RunSweep(sweep, pool);
  const uint64_t t1 = MonotonicNowNs();
  uint64_t total_accesses = 0;
  for (const JobResult& r : run.results) {
    total_accesses += r.metrics.accesses;
  }
  Blackhole(total_accesses);
  return PerfResult{"sweep_wallclock", "job", run.jobs.size(), t1 - t0};
}

struct Registered {
  const char* name;
  PerfResult (*fn)(bool smoke);
};

constexpr Registered kBenchmarks[] = {
    {"access_replay", BenchAccessReplay},
    {"access_replay_batched", BenchAccessReplayBatched},
    {"access_replay_memtis", BenchAccessReplayMemtis},
    {"access_replay_hemem", BenchAccessReplayHemem},
    {"access_replay_autotiering", BenchAccessReplayAutotiering},
    {"access_replay_sharded2", BenchAccessReplaySharded2},
    {"access_replay_sharded4", BenchAccessReplaySharded4},
    {"cooling_scan", BenchCoolingScan},
    {"metrics_recount", BenchMetricsRecount},
    {"split_collapse_churn", BenchSplitCollapseChurn},
    {"exchange_churn", BenchExchangeChurn},
    {"migrate_evict_churn", BenchMigrateEvictChurn},
    {"zipf_sample", BenchZipfSample},
    {"audit_tick", BenchAuditTickCheap},
    {"audit_tick_expensive", BenchAuditTickExpensive},
    {"snapshot_save", BenchSnapshotSave},
    {"snapshot_restore", BenchSnapshotRestore},
    {"sweep_wallclock", BenchSweepWallclock},
};

constexpr char kUsage[] =
    "usage: hotpath_bench [--smoke] [--benchmarks=a,b] [--repeat=N] "
    "[--out=FILE] [--force]\n";

// Splits a --benchmarks list into names; false (after naming the culprit)
// if any is not a registered benchmark.
bool ParseFilter(const std::string& list, std::set<std::string>* names) {
  size_t pos = 0;
  while (true) {
    const size_t comma = list.find(',', pos);
    const std::string name = list.substr(pos, comma - pos);
    const bool known = std::any_of(
        std::begin(kBenchmarks), std::end(kBenchmarks),
        [&name](const Registered& bench) { return name == bench.name; });
    if (!known) {
      std::fprintf(stderr, "hotpath_bench: unknown benchmark '%s'\n",
                   name.c_str());
      return false;
    }
    names->insert(name);
    if (comma == std::string::npos) {
      return true;
    }
    pos = comma + 1;
  }
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool force = false;
  int repeat = 1;
  std::string out_path;
  std::set<std::string> wanted;  // empty: every benchmark
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--force") {
      force = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--benchmarks=", 0) == 0) {
      if (!ParseFilter(arg.substr(13), &wanted)) {
        std::fputs(kUsage, stderr);
        return 2;
      }
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
      if (repeat < 1) {
        std::fprintf(stderr, "hotpath_bench: bad --repeat value\n");
        return 2;
      }
    } else {
      std::fputs(kUsage, stderr);
      return arg == "--help" ? 0 : 2;
    }
  }

  const std::string build_type = MEMTIS_PERF_BUILD_TYPE;
  if (!out_path.empty() && !smoke && build_type != "Release" && !force) {
    std::fprintf(stderr,
                 "hotpath_bench: refusing to write %s from a %s build; "
                 "tracked perf numbers must come from -DCMAKE_BUILD_TYPE="
                 "Release (use --force to override)\n",
                 out_path.c_str(), build_type.c_str());
    return 1;
  }

  PerfReporter reporter(smoke, build_type);
  for (const Registered& bench : kBenchmarks) {
    if (!wanted.empty() && wanted.count(bench.name) == 0) {
      continue;
    }
    PerfResult best = bench.fn(smoke);
    for (int r = 1; r < repeat; ++r) {
      PerfResult next = bench.fn(smoke);
      if (next.ns_per_op() < best.ns_per_op()) {
        best = std::move(next);
      }
    }
    reporter.Add(std::move(best));
  }

  std::printf("%s\n", reporter.ToJson(2).c_str());
  if (!out_path.empty() && !smoke) {
    if (!reporter.WriteFile(out_path)) {
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace memtis

int main(int argc, char** argv) { return memtis::Main(argc, argv); }
