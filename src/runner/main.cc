// memtis_run: CLI front-end of the experiment runner.
//
// Describes a sweep (cartesian product over systems x benchmarks x ratios x
// machines x seeds) with flags and/or a key=value file, executes it — on a
// ThreadPool in-process, or as a supervised campaign of forked children
// driven from one thread — and writes JSON or CSV results to stdout or a
// file. Output is byte-identical for any --threads value (see
// src/runner/sweep.h).
//
// Examples:
//   memtis_run --systems=memtis,hemem --benchmarks=btree,silo --seeds=2
//   memtis_run --ratios=1:2,1:8 --baseline --format=csv --out=sweep.csv
//   memtis_run --config=sweep.conf --threads=8
//   memtis_run --smoke        # tiny sweep used as a ctest smoke case

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/common/netio.h"
#include "src/fault/fault.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/coordinator.h"
#include "src/runner/job_codec.h"
#include "src/runner/work_queue.h"
#include "src/runner/worker.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/snapshot/snapshot_file.h"
#include "src/tenant/colocate.h"
#include "src/workloads/registry.h"

namespace memtis {
namespace {

volatile std::sig_atomic_t g_interrupted = 0;

struct CliOptions {
  SweepSpec sweep;
  SinkOptions sink;
  CampaignOptions campaign;
  bool supervise = false;       // fork one child per cell (a campaign)
  std::string format = "json";  // "json" | "csv"
  std::string out;              // empty or "-" -> stdout
  std::string audit_out;        // --audit-json sink (empty = none)
  std::string colocate;         // --colocate tenant spec (empty = sweep mode)
  std::optional<NetAddress> serve;   // --serve listen address (unset = local)
  std::optional<NetAddress> worker;  // --worker coordinator address
  std::string worker_name;      // --worker-name (default: w<pid>)
  std::string port_file;        // --port-file target for --serve=0
  int threads = 0;              // 0 -> ThreadPool::DefaultThreadCount()
  bool quiet = false;
  bool smoke = false;
  bool list_cells = false;
};

// True when any resilience feature is in play (each resilience flag implies
// --supervise): execution is a local or socket Campaign and output uses the
// outcome-aware schema_version 4 sinks.
bool ResilientMode(const CliOptions& cli) {
  return cli.supervise || cli.serve.has_value();
}

// Every numeric flag value goes through one of these two strict parsers, so
// a typo is a usage error instead of a silently different sweep. Unsigned:
// decimal digits only (no sign, no whitespace, no trailing text), and the
// value must fit T. Floating point: the whole text must be one finite
// number.
template <typename T>
bool ParseUnsigned(const std::string& text, T* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

void PrintUsage(std::FILE* to = stdout) {
  std::fprintf(
      to,
      "memtis_run — parallel MEMTIS-sim experiment sweeps\n"
      "\n"
      "Sweep axes (comma-separated lists; cartesian product):\n"
      "  --systems=a,b,..       tiering systems (default: the Fig. 5 set)\n"
      "  --benchmarks=a,b,..    workloads (default: the 8 paper benchmarks)\n"
      "  --ratios=1:2,1:8,..    fast:capacity ratios, A:B or a plain fraction\n"
      "  --machines=nvm,cxl     capacity-tier kinds (default: nvm)\n"
      "  --seeds=N              repetitions per cell (default: MEMTIS_BENCH_SEEDS)\n"
      "\n"
      "Per-job knobs:\n"
      "  --base-seed=N          seed-derivation base (default 0)\n"
      "  --accesses=N           access budget per run (default: scaled 3e6)\n"
      "  --footprint-scale=X    workload footprint multiplier\n"
      "  --fast-bytes=N         fixed fast-tier bytes (overrides --ratios)\n"
      "  --snapshot-ns=N        timeline snapshot interval (0 = off)\n"
      "  --shards=N             split each run into N independent sharded\n"
      "                         sub-simulations with a deterministic merge\n"
      "                         (requires a range-shardable benchmark such as\n"
      "                         \"stream\"; default 1 = monolithic)\n"
      "  --no-contention        disable daemon-CPU contention accounting\n"
      "  --baseline             add an all-capacity baseline per cell\n"
      "\n"
      "Execution and output:\n"
      "  --threads=N            pool size, or concurrent children when\n"
      "                         supervised (default: hardware_concurrency or\n"
      "                         MEMTIS_RUNNER_THREADS)\n"
      "  --format=json|csv      output format (default json)\n"
      "  --indent=N             JSON indent, 0 = compact (default 2)\n"
      "  --timelines            include per-job timelines in JSON\n"
      "  --out=FILE             write results to FILE (default stdout)\n"
      "  --config=FILE          read key=value lines (keys as above, no --);\n"
      "                         later flags override earlier ones\n"
      "  --quiet                suppress the progress line\n"
      "  --smoke                run a tiny fixed sweep (ctest tier-1 case)\n"
      "  --help                 this text\n"
      "\n"
      "Resilient sweeps (see README \"Resilient sweeps\"):\n"
      "  --supervise            run each cell in a forked child: a crash or\n"
      "                         SIM_CHECK abort downs only that cell\n"
      "  --job-timeout-ms=N     per-attempt wall-clock deadline; on overrun\n"
      "                         the child is SIGKILLed (implies --supervise)\n"
      "  --retries=N            retry a failed cell up to N times with a\n"
      "                         deterministic attempt-derived engine seed\n"
      "                         (implies --supervise)\n"
      "  --backoff-ms=N         exponential backoff base between attempts\n"
      "                         (default 100; deterministic, capped at 10s;\n"
      "                         also applies under --serve)\n"
      "  --resume=FILE          JSONL checkpoint manifest: completed cells are\n"
      "                         appended as they finish and skipped on rerun\n"
      "                         (implies --supervise)\n"
      "  --keep-going           keep running after a cell fails (default:\n"
      "                         first failure cancels the queued cells;\n"
      "                         implies --supervise)\n"
      "  --checkpoint-ns=N      snapshot each cell's full simulation state\n"
      "                         every N virtual ns (implies --supervise); a\n"
      "                         SIGKILL-class death resumes the same attempt\n"
      "                         from the newest valid snapshot, byte-identical\n"
      "                         to an uninterrupted run\n"
      "  --checkpoint-dir=DIR   where snapshots live (default memtis-ckpt; on\n"
      "                         shared storage, any worker resumes any lease)\n"
      "  --engine-seed=N        engine RNG seed for every cell (default 42)\n"
      "  --list-cells           print each cell's fingerprint and canonical\n"
      "                         spec, then exit (for MEMTIS_CRASH_CELL etc.)\n"
      "\n"
      "Distributed campaigns (see README \"Distributed campaigns\"):\n"
      "  --serve=[ADDR:]PORT    coordinate the sweep for remote workers over\n"
      "                         TCP on numeric IPv4 ADDR (default 127.0.0.1;\n"
      "                         the protocol is unauthenticated, so bind other\n"
      "                         addresses on trusted networks only) and PORT\n"
      "                         (0 = kernel-assigned, see --port-file). The\n"
      "                         merged output is byte-identical to a\n"
      "                         single-host supervised run; with --resume a\n"
      "                         killed coordinator restarts on fresh workers.\n"
      "  --worker=[HOST:]PORT   run cells for the coordinator at HOST\n"
      "                         (numeric IPv4, default 127.0.0.1); exits once\n"
      "                         the campaign is decided or the coordinator\n"
      "                         hangs up\n"
      "  --worker-name=NAME     worker name for logs and claim frames\n"
      "                         (default: w<pid>)\n"
      "  --lease-timeout-ms=N   re-issue a cell when its worker's lease goes\n"
      "                         this long without a heartbeat (default 10000)\n"
      "  --port-file=FILE       with --serve: write the bound port to FILE\n"
      "                         once the coordinator is listening (atomic:\n"
      "                         written to a temp file, then renamed)\n"
      "\n"
      "Auditing (see README \"Auditing and epoch telemetry\"):\n"
      "  --audit                run every job under the invariant auditor;\n"
      "                         exit 1 if any invariant is violated\n"
      "  --audit-json=FILE      write per-job audit reports + epoch telemetry\n"
      "                         to FILE (implies --audit; \"-\" = stdout)\n"
      "  --audit-epoch-ns=N     epoch telemetry cadence in virtual ns\n"
      "                         (default 1000000 with --audit-json; 0 = off)\n"
      "\n"
      "Co-location (see README \"Co-location and tenants\"):\n"
      "  --colocate=SPEC        run one colocated job over N tenants plus a\n"
      "                         solo baseline per tenant, and report each\n"
      "                         tenant's interference slowdown. SPEC is\n"
      "                         ;-separated tenants of ,-separated key=value\n"
      "                         fields (first field = the workload): name,\n"
      "                         quota (fast-tier fraction), weight, arrive,\n"
      "                         depart (virtual ns), accesses, phase-period,\n"
      "                         phase-low, scale. Uses the first --systems,\n"
      "                         --ratios, and --machines entry; resilient\n"
      "                         sweep flags do not apply.\n"
      "                         e.g. --colocate=\"silo,quota=0.5;pagerank\"\n"
      "\n"
      "Fault injection (see README \"Fault injection\"):\n"
      "  --faults=SPEC          inject faults into every job. SPEC is \"storm\"\n"
      "                         (dense preset), \"none\", or comma-separated\n"
      "                         site=prob[@start-end][/max] entries over sites\n"
      "                         alloc-fail migrate-abort sample-drop\n"
      "                         budget-starve tier-shrink, plus seed=N,\n"
      "                         shrink-step=F, shrink-cap=F\n"
      "                         e.g. --faults=migrate-abort=0.1,seed=7\n");
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(csv);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

// "A:B" -> A/(A+B) (so 1:2 -> 1/3, 2:1 -> 2/3); otherwise a plain fraction.
bool ParseRatio(const std::string& text, double* out) {
  const size_t colon = text.find(':');
  if (colon != std::string::npos) {
    double a = 0.0;
    double b = 0.0;
    if (!ParseDouble(text.substr(0, colon), &a) ||
        !ParseDouble(text.substr(colon + 1), &b) || a <= 0.0 || b < 0.0) {
      return false;
    }
    *out = a / (a + b);
    return true;
  }
  return ParseDouble(text, out) && *out > 0.0 && *out <= 1.0;
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& n : names) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

bool ApplyOption(const std::string& key, const std::string& value, CliOptions* cli);

bool ApplyConfigFile(const std::string& path, CliOptions* cli) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "memtis_run: cannot read config file %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim leading whitespace; skip blanks and comments.
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const size_t eq = line.find('=', start);
    if (eq == std::string::npos) {
      std::fprintf(stderr, "memtis_run: %s:%d: expected key=value\n", path.c_str(),
                   lineno);
      return false;
    }
    std::string key = line.substr(start, eq - start);
    key.erase(key.find_last_not_of(" \t") + 1);
    std::string value = line.substr(eq + 1);
    const size_t vstart = value.find_first_not_of(" \t");
    value = vstart == std::string::npos ? "" : value.substr(vstart);
    value.erase(value.find_last_not_of(" \t\r") + 1);
    if (!ApplyOption(key, value, cli)) {
      std::fprintf(stderr, "memtis_run: %s:%d: bad option %s=%s\n", path.c_str(),
                   lineno, key.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

bool ApplyOption(const std::string& key, const std::string& value, CliOptions* cli) {
  if (key == "systems") {
    cli->sweep.systems = SplitList(value);
    return !cli->sweep.systems.empty();
  }
  if (key == "benchmarks") {
    cli->sweep.benchmarks = SplitList(value);
    return !cli->sweep.benchmarks.empty();
  }
  if (key == "ratios") {
    cli->sweep.fast_ratios.clear();
    for (const std::string& item : SplitList(value)) {
      double ratio = 0.0;
      if (!ParseRatio(item, &ratio)) {
        std::fprintf(stderr, "memtis_run: bad ratio %s\n", item.c_str());
        return false;
      }
      cli->sweep.fast_ratios.push_back(ratio);
    }
    return !cli->sweep.fast_ratios.empty();
  }
  if (key == "machines") {
    cli->sweep.machines = SplitList(value);
    return !cli->sweep.machines.empty();
  }
  if (key == "seeds") {
    return ParseUnsigned(value, &cli->sweep.seeds) && cli->sweep.seeds >= 1;
  }
  if (key == "base-seed") {
    return ParseUnsigned(value, &cli->sweep.base_seed);
  }
  if (key == "accesses") {
    return ParseUnsigned(value, &cli->sweep.accesses);
  }
  if (key == "footprint-scale") {
    return ParseDouble(value, &cli->sweep.footprint_scale) &&
           cli->sweep.footprint_scale > 0.0;
  }
  if (key == "fast-bytes") {
    return ParseUnsigned(value, &cli->sweep.fast_bytes_override);
  }
  if (key == "snapshot-ns") {
    return ParseUnsigned(value, &cli->sweep.snapshot_interval_ns);
  }
  if (key == "shards") {
    return ParseUnsigned(value, &cli->sweep.shards) && cli->sweep.shards >= 1;
  }
  if (key == "no-contention") {
    cli->sweep.cpu_contention = false;
    return true;
  }
  if (key == "baseline") {
    cli->sweep.include_baseline = true;
    return true;
  }
  if (key == "threads") {
    return ParseUnsigned(value, &cli->threads);
  }
  if (key == "format") {
    cli->format = value;
    return value == "json" || value == "csv";
  }
  if (key == "indent") {
    return ParseUnsigned(value, &cli->sink.indent);
  }
  if (key == "timelines") {
    cli->sink.timelines = true;
    return true;
  }
  if (key == "out") {
    cli->out = value;
    return true;
  }
  if (key == "quiet") {
    cli->quiet = true;
    return true;
  }
  if (key == "audit") {
    cli->sweep.audit = true;
    return true;
  }
  if (key == "audit-json") {
    cli->sweep.audit = true;
    cli->audit_out = value.empty() ? "-" : value;
    if (cli->sweep.audit_epoch_interval_ns == 0) {
      cli->sweep.audit_epoch_interval_ns = 1'000'000;
    }
    return true;
  }
  if (key == "audit-epoch-ns") {
    return ParseUnsigned(value, &cli->sweep.audit_epoch_interval_ns);
  }
  if (key == "colocate") {
    ColocateSpec spec;
    std::string error;
    if (!ColocateSpec::Parse(value, &spec, &error)) {
      std::fprintf(stderr, "memtis_run: bad --colocate spec: %s\n", error.c_str());
      return false;
    }
    cli->colocate = value;
    return true;
  }
  if (key == "faults") {
    FaultPlan plan;
    std::string error;
    if (!FaultPlan::Parse(value, &plan, &error)) {
      std::fprintf(stderr, "memtis_run: bad --faults spec: %s\n", error.c_str());
      return false;
    }
    cli->sweep.faults = value;
    return true;
  }
  if (key == "supervise") {
    cli->supervise = true;
    return true;
  }
  if (key == "job-timeout-ms") {
    cli->supervise = true;
    return ParseUnsigned(value, &cli->campaign.job_timeout_ms) &&
           cli->campaign.job_timeout_ms > 0;
  }
  if (key == "retries") {
    int retries = 0;
    if (!ParseUnsigned(value, &retries) ||
        retries == std::numeric_limits<int>::max()) {
      return false;
    }
    cli->campaign.max_attempts = retries + 1;
    cli->supervise = true;
    return true;
  }
  if (key == "backoff-ms") {
    return ParseUnsigned(value, &cli->campaign.backoff_base_ms);
  }
  if (key == "resume") {
    cli->supervise = true;
    cli->campaign.manifest_path = value;
    return !value.empty();
  }
  if (key == "keep-going") {
    cli->supervise = true;
    cli->campaign.keep_going = true;
    return true;
  }
  if (key == "checkpoint-ns") {
    cli->supervise = true;
    return ParseUnsigned(value, &cli->campaign.checkpoint_ns) &&
           cli->campaign.checkpoint_ns > 0;
  }
  if (key == "checkpoint-dir") {
    cli->campaign.checkpoint_dir = value;
    return !value.empty();
  }
  if (key == "engine-seed") {
    return ParseUnsigned(value, &cli->sweep.engine_seed);
  }
  if (key == "list-cells") {
    cli->list_cells = true;
    return true;
  }
  if (key == "serve" || key == "worker") {
    NetAddress addr;
    std::string error;
    if (!ParseNetAddress(value, &addr, &error) ||
        (key == "worker" && addr.port == 0)) {
      std::fprintf(stderr, "memtis_run: bad --%s: %s\n", key.c_str(),
                   error.empty() ? "port 0" : error.c_str());
      return false;
    }
    (key == "serve" ? cli->serve : cli->worker) = addr;
    return true;
  }
  if (key == "worker-name") {
    cli->worker_name = value;
    return !value.empty();
  }
  if (key == "lease-timeout-ms") {
    return ParseUnsigned(value, &cli->campaign.lease_timeout_ms) &&
           cli->campaign.lease_timeout_ms > 0;
  }
  if (key == "port-file") {
    cli->port_file = value;
    return !value.empty();
  }
  if (key == "config") {
    return ApplyConfigFile(value, cli);
  }
  std::fprintf(stderr, "memtis_run: unknown option '%s'\n", key.c_str());
  return false;
}

// --colocate mode: one colocated job + per-tenant solo baselines instead of a
// sweep. Shares the first entry of each sweep axis; see RunColocation.
int ColocateMain(const CliOptions& cli) {
  ColocateSpec spec;
  std::string error;
  if (!ColocateSpec::Parse(cli.colocate, &spec, &error)) {
    std::fprintf(stderr, "memtis_run: bad --colocate spec: %s\n", error.c_str());
    return 2;
  }
  JobSpec base;
  base.system = cli.sweep.systems.empty() ? "memtis" : cli.sweep.systems[0];
  if (!Contains(KnownPolicyNames(), base.system)) {
    std::fprintf(stderr, "memtis_run: unknown system '%s'\n", base.system.c_str());
    return 2;
  }
  base.fast_ratio = cli.sweep.fast_ratios[0];
  base.cxl = !cli.sweep.machines.empty() && cli.sweep.machines[0] == "cxl";
  base.accesses = cli.sweep.accesses;
  base.cpu_contention = cli.sweep.cpu_contention;
  base.snapshot_interval_ns = cli.sweep.snapshot_interval_ns;
  base.fast_bytes_override = cli.sweep.fast_bytes_override;
  base.footprint_scale = cli.sweep.footprint_scale;
  base.base_seed = cli.sweep.base_seed;
  base.engine_seed = cli.sweep.engine_seed;
  base.audit_epoch_interval_ns = cli.sweep.audit_epoch_interval_ns;
  base.faults = cli.sweep.faults;

  ThreadPool pool(cli.threads);
  if (!cli.quiet) {
    std::fprintf(stderr,
                 "memtis_run: colocating %zu tenants (%s) + solo baselines\n",
                 spec.tenants.size(), base.system.c_str());
  }
  const ColocateResult result = RunColocation(spec, base, pool);

  const std::string data = cli.format == "csv"
                               ? ColocationToCsv(spec, result)
                               : ColocationToJson(spec, base, result, cli.sink);
  if (!WriteResultFile(cli.out, data)) {
    return 1;
  }
  const uint64_t violations = result.audit_report.violations_total;
  if (!cli.quiet || violations != 0) {
    std::fprintf(stderr, "memtis_run: audit %s (%" PRIu64 " violations)\n",
                 violations == 0 ? "clean" : "FAILED", violations);
  }
  return violations == 0 ? 0 : 1;
}

// --worker mode: pull cells from a coordinator until the campaign is decided.
// The sweep axes are ignored — the coordinator ships each cell's full spec.
int WorkerMain(const CliOptions& cli) {
  WorkerOptions options;
  options.name = cli.worker_name.empty() ? "w" + std::to_string(getpid())
                                         : cli.worker_name;
  options.job_timeout_ms = cli.campaign.job_timeout_ms;
  if (const char* kill = std::getenv("MEMTIS_KILL_WORKER")) {
    // Chaos hook: exit hard (no result, no FIN) while holding the Nth lease.
    options.kill_after_cells = std::atoi(kill);
    options.kill_hard = true;
  }

  // Coordinator may still be starting: retry the connect for a while.
  std::string error;
  const std::unique_ptr<WorkQueue> queue =
      MakeSocketWorkQueue(*cli.worker, options.name, 15'000, &error);
  if (queue == nullptr) {
    std::fprintf(stderr, "memtis_run: %s\n", error.c_str());
    return 1;
  }
  // Snapshots for checkpointed cells. Only a --checkpoint-dir on storage all
  // workers share lets any worker resume any re-issued lease.
  options.checkpoint_dir = cli.campaign.checkpoint_dir.empty()
                               ? "memtis-ckpt"
                               : cli.campaign.checkpoint_dir;
  // Graceful drain: SIGINT/SIGTERM lets the in-flight cell finish and report
  // before the worker exits 130 (supervised children ignore SIGINT, so the
  // terminal's process-group delivery cannot kill a cell mid-run).
  g_interrupted = 0;
  std::signal(SIGINT, [](int) { g_interrupted = 1; });
  std::signal(SIGTERM, [](int) { g_interrupted = 1; });
  options.drain = [] { return g_interrupted != 0; };

  const int rc = RunWorker(*queue, options);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (!cli.quiet) {
    const char* what = rc == 0   ? "campaign decided"
                       : rc == 3 ? "drained (interrupted)"
                                 : "gave up (coordinator refused)";
    std::fprintf(stderr, "memtis_run: worker %s: %s\n", options.name.c_str(),
                 what);
  }
  if (rc == 3) {
    return 130;
  }
  return rc == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    }
    if (arg == "--smoke") {
      cli->smoke = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "memtis_run: unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!ApplyOption(key, value, cli)) {
      return false;
    }
  }
  return true;
}

bool Validate(const SweepSpec& sweep) {
  for (const std::string& system : sweep.systems) {
    if (!Contains(KnownPolicyNames(), system)) {
      std::fprintf(stderr, "memtis_run: unknown system '%s' (known:", system.c_str());
      for (const std::string& name : KnownPolicyNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return false;
    }
  }
  for (const std::string& benchmark : sweep.benchmarks) {
    if (!Contains(KnownBenchmarks(), benchmark)) {
      std::fprintf(stderr, "memtis_run: unknown benchmark '%s' (known:",
                   benchmark.c_str());
      for (const std::string& name : KnownBenchmarks()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return false;
    }
    // Catch non-shardable benchmarks at the CLI (exit 2) instead of letting
    // RunJob abort mid-sweep inside ShardedEngine.
    if (sweep.shards > 1 &&
        MakeWorkload(benchmark)->ShardSlice(0, sweep.shards) == nullptr) {
      std::fprintf(stderr,
                   "memtis_run: benchmark '%s' is not range-shardable; "
                   "--shards=N needs one that is (e.g. stream)\n",
                   benchmark.c_str());
      return false;
    }
  }
  for (const std::string& machine : sweep.machines) {
    if (machine != "nvm" && machine != "cxl") {
      std::fprintf(stderr, "memtis_run: unknown machine '%s' (known: nvm cxl)\n",
                   machine.c_str());
      return false;
    }
  }
  return true;
}

// With --audit: writes --audit-json (when requested) and reports the
// verdict. False when the audit document cannot be written.
bool ReportAudit(const CliOptions& cli, uint64_t violations,
                 const std::function<std::string()>& audit_doc) {
  if (!cli.sweep.audit) {
    return true;
  }
  if (!cli.audit_out.empty() && !WriteResultFile(cli.audit_out, audit_doc())) {
    return false;
  }
  if (!cli.quiet || violations != 0) {
    std::fprintf(stderr, "memtis_run: audit %s (%" PRIu64 " violations)\n",
                 violations == 0 ? "clean" : "FAILED", violations);
  }
  return true;
}

// In-process sweep: every cell runs on a ThreadPool thread. A crash would
// take the whole process, so every cell completed and the schema_version 3
// document keeps its legacy shape. There is no SIGINT handler: ^C kills the
// run before it writes anything, since v3 cannot mark missing cells.
int InProcessMain(const CliOptions& cli, const std::vector<JobSpec>& jobs,
                  const ProgressFn& progress) {
  ThreadPool pool(cli.threads);
  if (!cli.quiet) {
    std::fprintf(stderr, "memtis_run: %zu jobs on %d threads\n", jobs.size(),
                 pool.thread_count());
  }
  const std::vector<JobResult> results = RunJobs(jobs, pool, progress);
  const std::string data = cli.format == "csv"
                               ? SweepToCsv(jobs, results)
                               : SweepToJson(cli.sweep, jobs, results, cli.sink);
  if (!WriteResultFile(cli.out, data)) {
    return 1;
  }
  uint64_t violations = 0;
  for (const JobResult& result : results) {
    violations += result.audit_report.violations_total;
  }
  if (!ReportAudit(cli, violations,
                   [&] { return AuditToJson(jobs, results, cli.sink); })) {
    return 1;
  }
  return violations == 0 ? 0 : 1;
}

// Supervised sweep: a Campaign over forked children, driven from this one
// thread locally or served to --worker processes. No thread is ever started
// here, so every fork happens in a single-threaded process.
int SupervisedMain(CliOptions cli, const std::vector<JobSpec>& jobs,
                   const ProgressFn& progress) {
  std::map<std::string, ManifestEntry> preloaded;
  if (!cli.campaign.manifest_path.empty()) {
    ManifestLoadStats stats;
    std::string error;
    if (!LoadManifest(cli.campaign.manifest_path, &preloaded, &stats, &error)) {
      std::fprintf(stderr, "memtis_run: %s\n", error.c_str());
      return 2;
    }
    if (!cli.quiet && stats.lines_total > 0) {
      std::fprintf(stderr,
                   "memtis_run: resume: %zu manifest entr%s"
                   " (%zu line%s skipped)\n",
                   stats.entries, stats.entries == 1 ? "y" : "ies",
                   stats.lines_skipped, stats.lines_skipped == 1 ? "" : "s");
    }
  }

  // Mid-cell checkpointing needs a snapshot directory: default one and make
  // sure it exists up front, so the first snapshot write cannot fail on a
  // missing directory deep inside a supervised child.
  if (cli.campaign.checkpoint_ns > 0) {
    if (cli.campaign.checkpoint_dir.empty()) {
      cli.campaign.checkpoint_dir = "memtis-ckpt";
    }
    if (mkdir(cli.campaign.checkpoint_dir.c_str(), 0777) != 0 &&
        errno != EEXIST) {
      std::fprintf(stderr, "memtis_run: cannot create checkpoint dir %s: %s\n",
                   cli.campaign.checkpoint_dir.c_str(), std::strerror(errno));
      return 2;
    }
  }

  // SIGINT stops new cells, drains in-flight ones, flushes the manifest, and
  // still writes the partial report (supervised children ignore SIGINT so
  // the terminal's process-group delivery cannot kill them mid-cell).
  g_interrupted = 0;
  std::signal(SIGINT, [](int) { g_interrupted = 1; });
  cli.campaign.cancelled = [] { return g_interrupted != 0; };

  std::string manifest_error;
  std::vector<CellOutcome> outcomes;
  if (cli.serve) {
    CampaignStats stats;
    std::string serve_error;
    const size_t cell_count = jobs.size();
    const auto on_listening = [&cli, cell_count](uint16_t bound) {
      if (!cli.port_file.empty()) {
        // Atomic (temp + rename): a reader polling for the file never sees
        // it empty or half-written — it appears complete or not at all.
        std::string write_error;
        if (!WriteFileAtomic(cli.port_file, std::to_string(bound) + "\n",
                             &write_error)) {
          std::fprintf(stderr, "memtis_run: cannot write %s: %s\n",
                       cli.port_file.c_str(), write_error.c_str());
        }
      }
      if (!cli.quiet) {
        std::fprintf(stderr, "memtis_run: coordinating %zu cells on %s:%u\n",
                     cell_count, cli.serve->host.c_str(), bound);
      }
    };
    outcomes = ServeSocketCampaign(jobs, cli.campaign, *cli.serve, on_listening,
                                   preloaded, progress, &stats, &serve_error,
                                   &manifest_error);
    if (!serve_error.empty()) {
      std::fprintf(stderr, "memtis_run: %s\n", serve_error.c_str());
      return 1;
    }
    if (!cli.quiet) {
      std::fprintf(stderr,
                   "memtis_run: campaign: %" PRIu64 " leases issued, %" PRIu64
                   " lost, %" PRIu64 " retries, %" PRIu64 " stale results\n",
                   stats.issues, stats.leases_lost, stats.retries,
                   stats.stale_results);
    }
  } else {
    const int concurrency =
        cli.threads > 0 ? cli.threads : ThreadPool::DefaultThreadCount();
    if (!cli.quiet) {
      std::fprintf(stderr, "memtis_run: %zu jobs, %d supervised at a time\n",
                   jobs.size(), concurrency);
    }
    outcomes = RunJobsResilient(jobs, cli.campaign, concurrency, preloaded,
                                progress, &manifest_error);
  }
  std::signal(SIGINT, SIG_DFL);
  if (!manifest_error.empty()) {
    std::fprintf(stderr, "memtis_run: WARNING: checkpointing disabled: %s\n",
                 manifest_error.c_str());
  }
  if (g_interrupted != 0) {
    std::fprintf(stderr, "\nmemtis_run: interrupted — reporting partial results\n");
  }

  size_t cells_missing = 0;
  uint64_t violations = 0;
  for (const CellOutcome& outcome : outcomes) {
    if (!outcome.ok) {
      ++cells_missing;
    } else {
      violations += outcome.result.audit_report.violations_total;
    }
  }
  const std::string data = cli.format == "csv"
                               ? SweepToCsv(jobs, outcomes)
                               : SweepToJson(cli.sweep, jobs, outcomes, cli.sink);
  if (!WriteResultFile(cli.out, data)) {
    return 1;
  }
  if (!ReportAudit(cli, violations,
                   [&] { return AuditToJson(jobs, outcomes, cli.sink); })) {
    return 1;
  }

  const std::string failures = FailureSummary(jobs, outcomes);
  if (!failures.empty()) {
    std::fprintf(stderr, "memtis_run: %s", failures.c_str());
  }
  if (g_interrupted != 0) {
    return 130;
  }
  return cells_missing != 0 || violations != 0 ? 1 : 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  cli.sweep.seeds = BenchSeeds();
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr, "\n");
    PrintUsage(stderr);
    return 2;
  }
  if ((cli.serve && cli.worker) ||
      (!cli.colocate.empty() && (cli.serve || cli.worker))) {
    std::fprintf(stderr,
                 "memtis_run: --serve, --worker, and --colocate are mutually "
                 "exclusive\n");
    return 2;
  }
  if (cli.worker) {
    return WorkerMain(cli);
  }
  if (cli.smoke) {
    // Fixed tiny sweep exercising two systems, two workloads, and the
    // baseline path; finishes in seconds so tier-1 ctest can afford it.
    // Audit, fault, and seed flags survive the reset so --smoke --audit-json,
    // --smoke --faults=storm, and the supervised smoke_resume case work.
    const bool audit = cli.sweep.audit;
    const uint64_t audit_epoch_ns = cli.sweep.audit_epoch_interval_ns;
    const std::string faults = cli.sweep.faults;
    const uint64_t engine_seed = cli.sweep.engine_seed;
    cli.sweep = SweepSpec{};
    cli.sweep.audit = audit;
    cli.sweep.audit_epoch_interval_ns = audit_epoch_ns;
    cli.sweep.faults = faults;
    cli.sweep.engine_seed = engine_seed;
    cli.sweep.systems = {"memtis", "autonuma"};
    cli.sweep.benchmarks = {"btree", "silo"};
    cli.sweep.fast_ratios = {1.0 / 3.0};
    cli.sweep.seeds = 1;
    cli.sweep.accesses = 60'000;
    cli.sweep.include_baseline = true;
    cli.sink.indent = 0;
    if (cli.out.empty()) {
      cli.out = "-";
    }
  }
  if (!cli.colocate.empty()) {
    return ColocateMain(cli);
  }
  if (cli.sweep.systems.empty()) {
    cli.sweep.systems = ComparisonSystems();
  }
  if (cli.sweep.benchmarks.empty()) {
    cli.sweep.benchmarks = StandardBenchmarks();
  }
  if (!Validate(cli.sweep)) {
    return 2;
  }

  const std::vector<JobSpec> jobs = ExpandJobs(cli.sweep);
  if (cli.list_cells) {
    for (const JobSpec& job : jobs) {
      std::printf("%s %s\n", JobFingerprint(job).c_str(),
                  CanonicalJobSpec(job).c_str());
    }
    return 0;
  }

  ProgressFn progress;
  if (!cli.quiet) {
    progress = [&jobs](size_t done, size_t total, size_t index) {
      std::fprintf(stderr, "\r[%zu/%zu] %s/%s", done, total,
                   jobs[index].system.c_str(), jobs[index].benchmark.c_str());
      if (done == total) {
        std::fprintf(stderr, "\n");
      }
      std::fflush(stderr);
    };
  }
  return ResilientMode(cli) ? SupervisedMain(cli, jobs, progress)
                            : InProcessMain(cli, jobs, progress);
}

}  // namespace
}  // namespace memtis

int main(int argc, char** argv) { return memtis::Main(argc, argv); }
