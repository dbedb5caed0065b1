// layer_trace: the in-process pass behind `memtis_bench.py --trace 1`.
//
//   layer_trace --cells=FILE [--threads=N] [--plain]
//   layer_trace --stream-probe --accesses=N [--base-seed=S] [--shards=K]
//               [--repeat=R]
//
// --cells runs every cell of FILE, one "<fingerprint> <canonical spec>" line
// each — the format `memtis_run --list-cells` prints — on a closed-loop pool
// of N worker threads, each taking the next cell when its last one finishes.
// A cell is built the way the runner's RunJob builds it, with the
// layer_trace.h decorators around its workload and policy (for an audited
// cell: around its workload and observer). --plain leaves the decorators off,
// which measures the tracing overhead. Spans stay in memory; one JSON
// document goes to stdout at exit with, per cell, its host-time spans, hook
// accumulators, and the simulated counters memtis_bench.py compares against
// memtis_run's sink for the same cell.
//
// --stream-probe times MEMTIS replaying the run-emitting stream model on the
// batched path and again forced onto the scalar path (RunAbsorbLimit = 0),
// the like-for-like pair on one workload. The two runs must produce
// identical counters (exit 1 otherwise). It then times the same replay split
// into 1 and into K shards on K threads.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/layer_trace.h"
#include "src/audit/audit_session.h"
#include "src/common/json.h"
#include "src/memtis/memtis_policy.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/sweep.h"
#include "src/sim/sharded_engine.h"
#include "src/workloads/registry.h"

namespace memtis::layer_trace {
namespace {

// The simulated counters compared against the sink, under the sink's own
// (dotted) key names. Identical values mean the decorated cell simulated
// exactly what memtis_run did.
void WriteMetrics(JsonWriter& o, const Metrics& m) {
  o.BeginObject();
  o.Field("accesses", m.accesses);
  o.Field("loads", m.loads);
  o.Field("stores", m.stores);
  o.Field("fast_accesses", m.fast_accesses);
  o.Field("capacity_accesses", m.capacity_accesses);
  o.Field("app_ns", m.app_ns);
  o.Field("critical_path_ns", m.critical_path_ns);
  o.Field("final_rss_pages", m.final_rss_pages);
  o.Field("peak_rss_pages", m.peak_rss_pages);
  o.Field("final_fast_used_pages", m.final_fast_used_pages);
  o.Field("final_huge_ratio", m.final_huge_ratio);
  o.Field("effective_runtime_ns", m.EffectiveRuntimeNs());
  o.Field("tlb.base_misses", m.tlb.base_misses);
  o.Field("tlb.huge_misses", m.tlb.huge_misses);
  o.Field("tlb.shootdowns", m.tlb.shootdowns);
  o.Field("migration.promoted_4k", m.migration.promoted_4k());
  o.Field("migration.demoted_4k", m.migration.demoted_4k());
  o.Field("migration.splits", m.migration.splits);
  o.Field("migration.collapses", m.migration.collapses);
  o.Field("migration.aborted_migrations", m.migration.aborted_migrations);
  o.Field("migration.demand_faults", m.migration.demand_faults);
  o.Field("faults.faults_injected", m.faults.total_injected());
  o.EndObject();
}

struct CellSpec {
  std::string system;
  std::string benchmark;
  bool cxl = false;
  double fast_ratio = 0.0;
  uint64_t accesses = 0;
  bool contention = true;
  uint64_t snapshot_ns = 0;
  uint64_t fast_bytes = 0;
  double footprint_scale = 0.0;
  uint64_t base_seed = 0;
  uint64_t seed_index = 0;
  uint64_t engine_seed = 0;
  bool audit = false;
  uint64_t epoch_ns = 0;
  FaultPlan faults;
  uint64_t shards = 1;
};

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

bool ParseBool(const std::string& text, bool* out) {
  *out = text == "1";
  return text == "0" || text == "1";
}

// Parses one `memtis_run --list-cells` line. Every key the canonical spec
// carries must be understood: a key this parser does not know could change
// what the cell simulates, so it is an error rather than ignored.
bool ParseCellLine(const std::string& line, CellSpec* out, std::string* error) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) {
    *error = "expected '<fingerprint> <spec>'";
    return false;
  }
  static constexpr std::string_view kRequired[] = {
      "system",      "benchmark",  "machine", "ratio",       "accesses",
      "contention",  "snapshot_ns", "fast_bytes", "fscale",  "base_seed",
      "seed_index",  "engine_seed", "audit",  "epoch_ns",    "faults",
      "tweak"};
  std::vector<std::string> seen;
  const std::string spec = line.substr(space + 1);
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = std::min(spec.find(';', pos), spec.size());
    const std::string item = spec.substr(pos, semi - pos);
    pos = semi + 1;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = "malformed field '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    bool ok = true;
    if (key == "system") {
      out->system = value;
    } else if (key == "benchmark") {
      out->benchmark = value;
    } else if (key == "machine") {
      out->cxl = value == "cxl";
      ok = value == "nvm" || value == "cxl";
    } else if (key == "ratio") {
      ok = ParseDouble(value, &out->fast_ratio);
    } else if (key == "accesses") {
      ok = ParseU64(value, &out->accesses);
    } else if (key == "contention") {
      ok = ParseBool(value, &out->contention);
    } else if (key == "snapshot_ns") {
      ok = ParseU64(value, &out->snapshot_ns);
    } else if (key == "fast_bytes") {
      ok = ParseU64(value, &out->fast_bytes);
    } else if (key == "fscale") {
      ok = ParseDouble(value, &out->footprint_scale);
    } else if (key == "base_seed") {
      ok = ParseU64(value, &out->base_seed);
    } else if (key == "seed_index") {
      ok = ParseU64(value, &out->seed_index) && out->seed_index <= UINT32_MAX;
    } else if (key == "engine_seed") {
      ok = ParseU64(value, &out->engine_seed);
    } else if (key == "audit") {
      ok = ParseBool(value, &out->audit);
    } else if (key == "epoch_ns") {
      ok = ParseU64(value, &out->epoch_ns);
    } else if (key == "faults") {
      std::string fault_error;
      ok = value.empty() || FaultPlan::Parse(value, &out->faults, &fault_error);
    } else if (key == "tweak") {
      ok = value == "0";  // a config tweak is a function; it cannot be listed
    } else if (key == "shards") {
      ok = ParseU64(value, &out->shards) && out->shards >= 1 &&
           out->shards <= UINT32_MAX;
    } else {
      *error = "unknown spec key '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "bad value for '" + key + "': '" + value + "'";
      return false;
    }
    seen.push_back(key);
  }
  for (const std::string_view key : kRequired) {
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      *error = "missing spec key '" + std::string(key) + "'";
      return false;
    }
  }
  if (out->audit && out->shards > 1) {
    *error = "audited sharded cells are not traced";
    return false;
  }
  return true;
}

struct CellResult {
  CellTrace trace;
  Metrics metrics;
  uint64_t run_ns = 0;  // construction through the final metrics
  bool audited = false;
  AuditReport audit;
};

// Builds and runs one cell the way RunJob does; only the decorators differ.
CellResult RunCell(const CellSpec& spec, bool plain, uint64_t clock_ns) {
  CellResult out;
  out.trace.clock_ns = clock_ns;
  const uint64_t t0 = NowNs();

  std::unique_ptr<Workload> workload = MakeWorkload(
      spec.benchmark, spec.footprint_scale,
      DeriveSeedOffset(spec.base_seed, static_cast<uint32_t>(spec.seed_index)));
  const uint64_t footprint = workload->footprint_bytes();
  const uint64_t fast =
      spec.fast_bytes != 0
          ? spec.fast_bytes
          : static_cast<uint64_t>(static_cast<double>(footprint) * spec.fast_ratio);
  const uint64_t capacity = footprint + footprint / 2;
  const MachineConfig machine =
      spec.cxl ? MakeCxlMachine(fast, capacity) : MakeNvmMachine(fast, capacity);
  EngineOptions opts;
  opts.max_accesses = spec.accesses;
  opts.snapshot_interval_ns = spec.snapshot_ns;
  opts.cpu_contention = spec.contention;
  opts.seed = spec.engine_seed;
  opts.faults = spec.faults;

  if (!plain) {
    workload = std::make_unique<TracedWorkload>(std::move(workload), out.trace);
  }
  const bool wrap_policy = !plain && !spec.audit;
  const auto wrap = [&](std::unique_ptr<TieringPolicy> policy)
      -> std::unique_ptr<TieringPolicy> {
    if (!wrap_policy) {
      return policy;
    }
    return std::make_unique<TracedPolicy>(std::move(policy), out.trace);
  };

  if (spec.shards > 1) {
    const uint32_t n = static_cast<uint32_t>(spec.shards);
    const MachineConfig slice = ShardedEngine::SliceMachine(machine, n);
    const uint64_t fast_slice = slice.mem.fast_frames * kPageSize;
    const uint64_t footprint_slice = footprint / n;
    ShardedOptions sopts;
    sopts.shards = n;
    sopts.threads = 1;  // as in RunJob: the pool parallelizes across cells
    sopts.engine = opts;
    ShardedEngine sharded(
        machine,
        [&] { return wrap(MakePolicy(spec.system, footprint_slice, fast_slice)); },
        sopts);
    out.metrics = sharded.Run(*workload);
  } else {
    std::unique_ptr<TieringPolicy> policy =
        wrap(MakePolicy(spec.system, footprint, fast));
    std::unique_ptr<AuditSession> session;
    std::unique_ptr<TracedObserver> observer;
    if (spec.audit) {
      AuditSessionOptions audit_opts;
      audit_opts.record_epochs = spec.epoch_ns != 0;
      if (spec.epoch_ns != 0) {
        audit_opts.epochs.interval_ns = spec.epoch_ns;
      }
      session = std::make_unique<AuditSession>(audit_opts);
      opts.audit = session.get();
      if (!plain) {
        observer = std::make_unique<TracedObserver>(*session, out.trace);
        opts.audit = observer.get();
      }
    }
    Engine engine(machine, *policy, opts);
    out.metrics = engine.Run(*workload);
    if (session != nullptr) {
      out.audited = true;
      out.audit = session->report();
    }
  }
  out.run_ns = NowNs() - t0;
  return out;
}

void WriteCell(JsonWriter& o, const CellSpec& spec, const CellResult& r) {
  const CellTrace& t = r.trace;
  o.BeginObject();
  o.Field("system", spec.system);
  o.Field("benchmark", spec.benchmark);
  o.Field("run_ns", r.run_ns);
  o.Field("setup_ns", t.setup_ns);
  o.Field("step_ns", t.step_ns);
  o.Field("step_calls", t.step_calls);
  o.Field("step_hook_ns", t.step_hook_ns);
  o.Field("on_access_calls", t.on_access_calls);
  o.Field("on_access_ns", t.on_access_ns);
  o.Field("absorb_calls", t.absorb_calls);
  o.Field("absorbed_accesses", t.absorbed_accesses);
  o.Field("absorb_ns", t.absorb_ns);
  o.Field("tick_calls", t.tick_calls);
  o.Field("tick_ns", t.tick_ns);
  o.Field("alloc_hook_calls", t.alloc_hook_calls);
  o.Field("alloc_hook_ns", t.alloc_hook_ns);
  o.Field("observer_calls", t.observer_calls);
  o.Field("observer_ns", t.observer_ns);
  o.Field("hooks_ns", t.hooks_ns());
  o.Key("metrics");
  WriteMetrics(o, r.metrics);
  if (r.audited) {
    o.Key("audit");
    o.BeginObject();
    o.Field("ticks_audited", r.audit.ticks_audited);
    o.Field("checks_run", r.audit.checks_run);
    o.Field("violations_total", r.audit.violations_total);
    o.EndObject();
  }
  o.EndObject();
}

int TraceCells(const std::string& path, int threads, bool plain) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "layer_trace: cannot read %s\n", path.c_str());
    return 2;
  }
  std::vector<CellSpec> cells;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    CellSpec spec;
    std::string error;
    if (!ParseCellLine(line, &spec, &error)) {
      std::fprintf(stderr, "layer_trace: %s:%zu: %s\n", path.c_str(),
                   cells.size() + 1, error.c_str());
      return 2;
    }
    cells.push_back(std::move(spec));
  }

  const uint64_t clock_ns = CalibrateClockNs();
  std::vector<CellResult> results(cells.size());
  std::atomic<size_t> next{0};
  const uint64_t t0 = NowNs();
  {
    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&] {
        for (size_t c; (c = next.fetch_add(1)) < cells.size();) {
          results[c] = RunCell(cells[c], plain, clock_ns);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const uint64_t wall_ns = NowNs() - t0;

  DurationHistogram ticks;
  for (const CellResult& r : results) {
    ticks.Merge(r.trace.tick_hist);
  }
  std::string doc;
  JsonWriter o(&doc);
  o.BeginObject();
  o.Field("clock_ns", clock_ns);
  o.Field("wall_ns", wall_ns);
  o.Field("tick_p50_ns", ticks.Quantile(0.5));
  o.Field("tick_p999_ns", ticks.Quantile(0.999));
  o.Key("cells");
  o.BeginArray();
  for (size_t i = 0; i < cells.size(); ++i) {
    WriteCell(o, cells[i], results[i]);
  }
  o.EndArray();
  o.EndObject();
  std::printf("%s\n", doc.c_str());
  return 0;
}

// MEMTIS with batched replay switched off: the engine falls back to one
// OnAccess per access, which the batched-replay contract makes
// byte-identical to the batched path.
class ScalarMemtisPolicy final : public MemtisPolicy {
 public:
  using MemtisPolicy::MemtisPolicy;
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)ctx;
    (void)is_write;
    return 0;
  }
};

struct Replay {
  std::string counters;  // WriteMetrics of the finished run
  double ns_per_access = 0.0;
};

// Stream under MEMTIS at 1:2, timed after a warm-up tenth of the budget has
// populated the heap and the sampler.
Replay ReplayStream(uint64_t accesses, uint64_t seed_offset, bool scalar) {
  std::unique_ptr<Workload> workload = MakeWorkload("stream", 0.25, seed_offset);
  const uint64_t footprint = workload->footprint_bytes();
  const uint64_t fast = footprint / 3;
  const MemtisConfig config = MemtisConfig::ScaledDefaults(footprint, fast);
  std::unique_ptr<TieringPolicy> policy =
      scalar ? std::make_unique<ScalarMemtisPolicy>(config)
             : std::make_unique<MemtisPolicy>(config);
  EngineOptions opts;
  opts.max_accesses = accesses / 10;
  Engine engine(MakeNvmMachine(fast, footprint + footprint / 2), *policy, opts);
  engine.Run(*workload);
  const uint64_t warm = engine.metrics().accesses;
  engine.set_max_accesses(accesses);
  const uint64_t t0 = NowNs();
  const Metrics metrics = engine.Run(*workload);
  const uint64_t t1 = NowNs();
  std::string counters;
  JsonWriter o(&counters);
  WriteMetrics(o, metrics);
  return Replay{counters, static_cast<double>(t1 - t0) /
                             static_cast<double>(metrics.accesses - warm)};
}

double ReplayStreamShardedNs(uint64_t accesses, uint64_t seed_offset,
                             uint32_t shards) {
  std::unique_ptr<Workload> workload = MakeWorkload("stream", 0.25, seed_offset);
  const uint64_t footprint = workload->footprint_bytes();
  const uint64_t fast = footprint / 3;
  const MachineConfig machine = MakeNvmMachine(fast, footprint + footprint / 2);
  const MachineConfig slice = ShardedEngine::SliceMachine(machine, shards);
  const uint64_t fast_slice = slice.mem.fast_frames * kPageSize;
  const uint64_t footprint_slice = footprint / shards;
  ShardedOptions sopts;
  sopts.shards = shards;
  sopts.threads = shards;
  sopts.engine.max_accesses = accesses;
  ShardedEngine sharded(
      machine, [&] { return MakePolicy("memtis", footprint_slice, fast_slice); },
      sopts);
  const uint64_t t0 = NowNs();
  sharded.Run(*workload);
  return static_cast<double>(NowNs() - t0);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int StreamProbe(uint64_t accesses, uint64_t base_seed, uint32_t shards,
                int repeat) {
  const uint64_t seed_offset = DeriveSeedOffset(base_seed, 0);
  std::vector<double> batched, scalar, one_shard, k_shards;
  for (int r = 0; r < repeat; ++r) {
    const Replay b = ReplayStream(accesses, seed_offset, /*scalar=*/false);
    const Replay s = ReplayStream(accesses, seed_offset, /*scalar=*/true);
    if (b.counters != s.counters) {
      std::fprintf(stderr,
                   "layer_trace: scalar and batched stream replays diverged\n"
                   "  batched: %s\n  scalar:  %s\n",
                   b.counters.c_str(), s.counters.c_str());
      return 1;
    }
    batched.push_back(b.ns_per_access);
    scalar.push_back(s.ns_per_access);
    one_shard.push_back(ReplayStreamShardedNs(accesses, seed_offset, 1));
    k_shards.push_back(ReplayStreamShardedNs(accesses, seed_offset, shards));
  }
  std::string doc;
  JsonWriter o(&doc);
  o.BeginObject();
  o.Field("accesses", accesses);
  o.Field("shards", shards);
  o.Field("batched_ns_per_access", Median(batched));
  o.Field("scalar_ns_per_access", Median(scalar));
  o.Field("scalar_over_batched", Median(scalar) / Median(batched));
  o.Field("shard_speedup", Median(one_shard) / Median(k_shards));
  o.EndObject();
  std::printf("%s\n", doc.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: layer_trace --cells=FILE [--threads=N] [--plain]\n"
               "       layer_trace --stream-probe --accesses=N [--base-seed=S]"
               " [--shards=K] [--repeat=R]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string cells_path;
  bool plain = false;
  bool stream_probe = false;
  uint64_t threads = 1;
  uint64_t accesses = 0;
  uint64_t base_seed = 0;
  uint64_t shards = 4;
  uint64_t repeat = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--cells") {
      cells_path = value;
      ok = !value.empty();
    } else if (key == "--plain" && eq == std::string::npos) {
      plain = true;
    } else if (key == "--stream-probe" && eq == std::string::npos) {
      stream_probe = true;
    } else if (key == "--threads") {
      ok = ParseU64(value, &threads) && threads >= 1 && threads <= 1024;
    } else if (key == "--accesses") {
      ok = ParseU64(value, &accesses) && accesses >= 10;
    } else if (key == "--base-seed") {
      ok = ParseU64(value, &base_seed);
    } else if (key == "--shards") {
      ok = ParseU64(value, &shards) && shards >= 1 && shards <= 64;
    } else if (key == "--repeat") {
      ok = ParseU64(value, &repeat) && repeat >= 1 && repeat <= 100;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "layer_trace: bad argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (stream_probe == !cells_path.empty()) {
    return Usage();
  }
  if (stream_probe) {
    if (accesses == 0) {
      return Usage();
    }
    return StreamProbe(accesses, base_seed, static_cast<uint32_t>(shards),
                       static_cast<int>(repeat));
  }
  return TraceCells(cells_path, static_cast<int>(threads), plain);
}

}  // namespace
}  // namespace memtis::layer_trace

int main(int argc, char** argv) { return memtis::layer_trace::Main(argc, argv); }
