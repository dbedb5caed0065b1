// Tests for the experiment-runner subsystem: thread pool, seed derivation,
// sweep expansion, aggregation, and — the load-bearing guarantee — that a
// sweep's serialized output is byte-identical for 1 thread and N threads.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/runner/coordinator.h"
#include "src/runner/job_codec.h"
#include "src/runner/manifest.h"
#include "src/runner/result_sink.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"

namespace memtis {
namespace {

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  setenv("MEMTIS_RUNNER_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  setenv("MEMTIS_RUNNER_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 1);  // clamped to >= 1
  unsetenv("MEMTIS_RUNNER_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(SeedDerivation, SingleDocumentedScheme) {
  EXPECT_EQ(DeriveSeedOffset(0, 0), 0u);
  // Reproduces the historical index*1000 offsets at base_seed == 0.
  EXPECT_EQ(DeriveSeedOffset(0, 3), 3 * kSeedStride);
  EXPECT_EQ(DeriveSeedOffset(7, 2), 7 + 2 * kSeedStride);

  JobSpec spec;
  spec.base_seed = 5;
  spec.seed_index = 4;
  EXPECT_EQ(spec.workload_seed_offset(), 5 + 4 * kSeedStride);
}

TEST(Sweep, ExpandsCartesianProductInDeterministicOrder) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "hemem"};
  sweep.benchmarks = {"btree", "silo"};
  sweep.fast_ratios = {0.5, 0.25};
  sweep.seeds = 3;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 2u * 2u * 3u * 2u);
  // benchmark-major, then ratio, then seed, then system.
  EXPECT_EQ(jobs[0].benchmark, "btree");
  EXPECT_EQ(jobs[0].fast_ratio, 0.5);
  EXPECT_EQ(jobs[0].seed_index, 0u);
  EXPECT_EQ(jobs[0].system, "memtis");
  EXPECT_EQ(jobs[1].system, "hemem");
  EXPECT_EQ(jobs[2].seed_index, 1u);
  EXPECT_EQ(jobs[6].fast_ratio, 0.25);
  EXPECT_EQ(jobs[12].benchmark, "silo");

  sweep.include_baseline = true;
  const std::vector<JobSpec> with_baseline = ExpandJobs(sweep);
  ASSERT_EQ(with_baseline.size(), 2u * 2u * 3u * 3u);
  EXPECT_EQ(with_baseline[0].system, "all-capacity");
  EXPECT_EQ(with_baseline[1].system, "memtis");
}

TEST(Sweep, CellKeyGroupsSeedsAndSeparatesCells) {
  JobSpec a;
  a.system = "memtis";
  a.benchmark = "btree";
  JobSpec b = a;
  b.seed_index = 5;  // repetitions share a cell
  EXPECT_EQ(CellKey(a), CellKey(b));
  JobSpec c = a;
  c.fast_ratio = 0.5;
  EXPECT_NE(CellKey(a), CellKey(c));
  JobSpec d = a;
  d.cxl = true;
  EXPECT_NE(CellKey(a), CellKey(d));
}

TEST(SweepAggregator, MeanStddevGeomean) {
  SweepAggregator agg;
  agg.Add("cell", 2.0);
  agg.Add("cell", 8.0);
  agg.Add("other", 1.0);
  ASSERT_EQ(agg.cells().size(), 2u);
  EXPECT_TRUE(agg.Has("cell"));
  EXPECT_FALSE(agg.Has("missing"));
  EXPECT_DOUBLE_EQ(agg.Mean("cell"), 5.0);
  EXPECT_DOUBLE_EQ(agg.GeoMeanOf("cell"), 4.0);
  EXPECT_NEAR(agg.Stddev("cell"), 4.2426406871192848, 1e-12);
  EXPECT_DOUBLE_EQ(agg.Stddev("other"), 0.0);  // n < 2
  EXPECT_DOUBLE_EQ(agg.Mean("missing"), 0.0);
  agg.Add("zeros", 0.0);
  EXPECT_DOUBLE_EQ(agg.GeoMeanOf("zeros"), 0.0);  // undefined -> 0, no abort
}

// The tentpole guarantee: the same SweepSpec run with 1 thread and with N
// threads serializes to byte-identical JSON (and CSV).
TEST(Sweep, ParallelRunIsByteIdenticalToSerialRun) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma", "hemem"};
  sweep.benchmarks = {"btree", "silo"};
  sweep.fast_ratios = {1.0 / 3.0, 1.0 / 9.0};
  sweep.seeds = 2;
  sweep.accesses = 30'000;  // tiny budget: 24 jobs stay test-sized
  sweep.include_baseline = false;

  ThreadPool serial(1);
  ThreadPool parallel(4);
  const SweepRun run1 = RunSweep(sweep, serial);
  const SweepRun run4 = RunSweep(sweep, parallel);
  ASSERT_EQ(run1.jobs.size(), 24u);
  ASSERT_EQ(run4.jobs.size(), 24u);

  SinkOptions options;
  options.indent = 0;
  const std::string json1 = SweepToJson(sweep, run1.jobs, run1.results, options);
  const std::string json4 = SweepToJson(sweep, run4.jobs, run4.results, options);
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(SweepToCsv(run1.jobs, run1.results),
            SweepToCsv(run4.jobs, run4.results));

  // Sanity: the document actually carries distinct, nontrivial results.
  EXPECT_NE(json1.find("\"aggregates\""), std::string::npos);
  std::set<double> runtimes;
  for (const JobResult& result : run1.results) {
    EXPECT_GT(result.metrics.accesses, 0u);
    runtimes.insert(result.metrics.EffectiveRuntimeNs());
  }
  EXPECT_GT(runtimes.size(), 1u);
}

TEST(CsvEscape, PassesPlainFieldsThroughUnquoted) {
  EXPECT_EQ(CsvEscape("memtis"), "memtis");
  EXPECT_EQ(CsvEscape(""), "");
  EXPECT_EQ(CsvEscape("603.bwaves"), "603.bwaves");
  EXPECT_EQ(CsvEscape("a b c"), "a b c");  // spaces need no quoting
}

TEST(CsvEscape, QuotesSeparatorsAndDoublesEmbeddedQuotes) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(CsvEscape("cr\rlf"), "\"cr\rlf\"");
  EXPECT_EQ(CsvEscape("\""), "\"\"\"\"");
  EXPECT_EQ(CsvEscape(","), "\",\"");
}

TEST(SweepToCsv, EmptySweepEmitsHeaderOnly) {
  const std::string csv =
      SweepToCsv(std::vector<JobSpec>{}, std::vector<JobResult>{});
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.back(), '\n');
  // Exactly one line: the header.
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);
  EXPECT_EQ(csv.rfind("id,system,benchmark,", 0), 0u);
}

TEST(SweepToCsv, EscapesHostileSystemAndBenchmarkNames) {
  JobSpec spec;
  spec.system = "memtis,v2";          // embedded comma
  spec.benchmark = "bt\"ree\nnight";  // embedded quote + newline
  JobResult result;
  result.metrics.accesses = 7;
  const std::string csv = SweepToCsv({spec}, {result});

  EXPECT_NE(csv.find("\"memtis,v2\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"bt\"\"ree\nnight\""), std::string::npos) << csv;

  // RFC 4180 line accounting: header + data row + the one embedded newline.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(SweepToCsv, SingleJobRowMatchesHeaderArity) {
  JobSpec spec;
  spec.system = "autonuma";
  spec.benchmark = "btree";
  JobResult result;
  result.metrics.accesses = 42;
  const std::string csv = SweepToCsv({spec}, {result});

  const size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string header = csv.substr(0, header_end);
  const std::string row = csv.substr(header_end + 1);
  ASSERT_FALSE(row.empty());
  // Neither line contains quoted fields here, so commas count columns.
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

// RunJob must honour the seed derivation: different seed_index, different
// workload instantiation; same spec, same result.
TEST(Sweep, SeedIndexVariesWorkloadDeterministically) {
  JobSpec spec;
  spec.system = "autonuma";
  spec.benchmark = "btree";
  spec.accesses = 20'000;

  const JobResult base1 = RunJob(spec);
  const JobResult base2 = RunJob(spec);
  EXPECT_EQ(base1.metrics.app_ns, base2.metrics.app_ns);
  EXPECT_EQ(base1.metrics.fast_accesses, base2.metrics.fast_accesses);

  JobSpec other = spec;
  other.seed_index = 1;
  const JobResult varied = RunJob(other);
  EXPECT_NE(base1.metrics.app_ns, varied.metrics.app_ns);
}

// The sharded RunJob branch with the collect auditor and epoch telemetry on:
// the merged result must carry every shard's audit counters and at least one
// epoch sample per shard (OnRunEnd records a final sample), all clean. Pins
// the shard-audit merge path end to end (it once crashed on an iterator pair
// taken from two separate samples() temporaries).
TEST(Sweep, ShardedJobMergesAuditReportAndEpochs) {
  JobSpec spec;
  spec.system = "memtis";
  spec.benchmark = "stream";
  spec.accesses = 40'000;
  spec.shards = 4;
  spec.audit = true;
  spec.audit_epoch_interval_ns = 50'000'000;

  const JobResult merged = RunJob(spec);
  EXPECT_TRUE(merged.audited);
  EXPECT_EQ(merged.audit_report.violations_total, 0u);
  EXPECT_GT(merged.audit_report.ticks_audited, 0u);
  EXPECT_GE(merged.epochs.size(), 4u);
  EXPECT_EQ(merged.epochs_recorded_total, merged.epochs.size());
  EXPECT_EQ(merged.epoch_interval_ns, spec.audit_epoch_interval_ns);

  // Same spec, same merged bytes — the sharded branch is as deterministic as
  // the plain one, audit document included.
  std::string a, b;
  JsonWriter wa(&a, 0), wb(&b, 0);
  WriteJobResultJson(wa, merged);
  WriteJobResultJson(wb, RunJob(spec));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Resilience plane: supervision, retries, manifests, resume.
// ---------------------------------------------------------------------------

// Sets an environment variable for the enclosing scope and restores the
// previous state on destruction (the MEMTIS_CRASH_CELL/MEMTIS_HANG_CELL
// injection hooks are read by supervised children via the environment).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

std::string SerializeResult(const JobResult& result) {
  std::string out;
  JsonWriter w(&out, 0);
  WriteJobResultJson(w, result);
  return out;
}

// A cheap cell that exercises the full codec surface (MEMTIS introspection +
// audit report + epoch telemetry).
JobSpec SmallSpec() {
  JobSpec spec;
  spec.system = "memtis";
  spec.benchmark = "btree";
  spec.accesses = 30'000;
  spec.audit = true;
  spec.audit_epoch_interval_ns = 50'000'000;
  return spec;
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(Supervisor, SupervisedSuccessIsByteIdenticalToInProcessRun) {
  const JobSpec spec = SmallSpec();
  const JobResult in_process = RunJob(spec);

  const SupervisedOutcome out = RunJobSupervised(spec, 0, SupervisorOptions{});
  ASSERT_TRUE(out.ok) << out.failure.message;
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(SerializeResult(out.result), SerializeResult(in_process));
}

TEST(Supervisor, InjectedCrashReportsKindAndCheckExprAndReproducer) {
  const JobSpec spec = SmallSpec();
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(spec));

  const SupervisedOutcome out = RunJobSupervised(spec, 0, SupervisorOptions{});
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.failure.kind, FailureKind::kCrash);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_NE(out.failure.check_expr.find("MEMTIS_CRASH_CELL"), std::string::npos)
      << out.failure.check_expr;
  EXPECT_NE(out.failure.reproducer_cmdline.find("--benchmarks=btree"),
            std::string::npos)
      << out.failure.reproducer_cmdline;
}

TEST(Supervisor, DeadlineOverrunReportsTimeoutWithReproducer) {
  const JobSpec spec = SmallSpec();
  ScopedEnv hang("MEMTIS_HANG_CELL", JobFingerprint(spec));

  SupervisorOptions options;
  options.job_timeout_ms = 300;
  const SupervisedOutcome out = RunJobSupervised(spec, 0, options);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(out.failure.signal, SIGKILL);
  EXPECT_NE(out.failure.reproducer_cmdline.find("memtis_run --supervise"),
            std::string::npos)
      << out.failure.reproducer_cmdline;
  EXPECT_NE(out.failure.reproducer_cmdline.find("--benchmarks=btree"),
            std::string::npos)
      << out.failure.reproducer_cmdline;
}

// A cell that crashes on attempt 0 only must succeed on attempt 1 with the
// documented retry seed — byte-identical to running the spec in-process with
// that seed folded in by hand. The sweep's campaign owns the retry.
TEST(Supervisor, RetryAfterInjectedCrashIsDeterministic) {
  const JobSpec spec = SmallSpec();
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(spec) + ":1");

  CampaignOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 0;
  const std::vector<CellOutcome> out = RunJobsResilient({spec}, options, 1);
  ASSERT_TRUE(out[0].ok) << out[0].failure.message;
  EXPECT_EQ(out[0].attempts, 2);

  JobSpec retried = spec;
  retried.engine_seed = AttemptEngineSeed(spec.engine_seed, 1);
  EXPECT_EQ(SerializeResult(out[0].result), SerializeResult(RunJob(retried)));
}

// The retry-accounting contract distributed campaigns depend on: a retry
// split across processes (attempt 0 fails on worker A, attempt 1 runs on
// worker B) must report the same global attempt count, seed, reproducer,
// and bytes as a local sweep's max_attempts=2 retry.
TEST(Supervisor, FirstAttemptRunsAtGlobalAttemptNumber) {
  const JobSpec spec = SmallSpec();
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(spec) + ":1");

  // Local reference: crash once, succeed on the folded seed.
  CampaignOptions local;
  local.max_attempts = 2;
  local.backoff_base_ms = 0;
  const std::vector<CellOutcome> reference =
      RunJobsResilient({spec}, local, 1);
  ASSERT_TRUE(reference[0].ok);
  ASSERT_EQ(reference[0].attempts, 2);

  // "Worker A": global attempt 0 — crashes, counts 1 attempt, and its
  // reproducer names attempt 0.
  const SupervisedOutcome a0 = RunJobSupervised(spec, 0, SupervisorOptions{});
  ASSERT_FALSE(a0.ok);
  EXPECT_EQ(a0.attempts, 1);
  EXPECT_EQ(a0.failure.kind, FailureKind::kCrash);
  EXPECT_EQ(a0.failure.reproducer_cmdline, ReproducerCmdline(spec, 0));

  // "Worker B": global attempt 1 — the crash hook (armed for attempt 0 only)
  // does not fire, the seed folds, and the global attempt count lands at 2,
  // exactly like the local retry.
  const SupervisedOutcome a1 = RunJobSupervised(spec, 1, SupervisorOptions{});
  ASSERT_TRUE(a1.ok) << a1.failure.message;
  EXPECT_EQ(a1.attempts, 2);
  EXPECT_EQ(SerializeResult(a1.result), SerializeResult(reference[0].result));
}

TEST(ResilientSweep, RetriedSweepIsByteIdenticalAcrossThreadCounts) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 30'000;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 2u);
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(jobs[0]) + ":1");

  CampaignOptions options;
  options.max_attempts = 2;
  options.backoff_base_ms = 0;

  const std::vector<CellOutcome> out1 = RunJobsResilient(jobs, options, 1);
  const std::vector<CellOutcome> out4 = RunJobsResilient(jobs, options, 4);

  ASSERT_TRUE(out1[0].ok && out4[0].ok);
  EXPECT_EQ(out1[0].attempts, 2);
  EXPECT_EQ(out4[0].attempts, 2);
  SinkOptions opts;
  opts.indent = 0;
  EXPECT_EQ(SweepToJson(sweep, jobs, out1, opts),
            SweepToJson(sweep, jobs, out4, opts));
  EXPECT_EQ(SweepToCsv(jobs, out1), SweepToCsv(jobs, out4));
}

// The acceptance property: interrupt a sweep (one cell crashed), then resume
// from its manifest without injection — the resumed aggregate must serialize
// to exactly the bytes of the never-interrupted run.
TEST(ResilientSweep, ResumeReproducesUninterruptedBytes) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 30'000;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 2u);

  CampaignOptions options;
  options.keep_going = true;
  options.manifest_path = TempPath("memtis_resume_test.jsonl");

  SinkOptions opts;
  opts.indent = 0;

  std::string reference;
  {
    const std::vector<CellOutcome> full =
        RunJobsResilient(jobs, CampaignOptions{}, 2);
    ASSERT_TRUE(full[0].ok && full[1].ok);
    reference = SweepToJson(sweep, jobs, full, opts);
  }

  {  // Interrupted run: the memtis cell crashes, the other completes.
    ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(jobs[0]));
    const std::vector<CellOutcome> partial =
        RunJobsResilient(jobs, options, 2);
    EXPECT_FALSE(partial[0].ok);
    EXPECT_EQ(partial[0].failure.kind, FailureKind::kCrash);
    ASSERT_TRUE(partial[1].ok);
    EXPECT_NE(SweepToJson(sweep, jobs, partial, opts), reference);
  }

  std::map<std::string, ManifestEntry> preloaded;
  ManifestLoadStats stats;
  ASSERT_TRUE(LoadManifest(options.manifest_path, &preloaded, &stats));
  // Both cells were appended (the crash too); only the ok one is reused.
  EXPECT_EQ(stats.entries, 2u);

  const std::vector<CellOutcome> resumed =
      RunJobsResilient(jobs, options, 2, preloaded);
  ASSERT_TRUE(resumed[0].ok && resumed[1].ok);
  EXPECT_FALSE(resumed[0].from_manifest);  // failed entry re-ran
  EXPECT_TRUE(resumed[1].from_manifest);   // ok entry reloaded
  EXPECT_EQ(SweepToJson(sweep, jobs, resumed, opts), reference);
  std::remove(options.manifest_path.c_str());
}

TEST(Manifest, MissingFileIsEmptySuccess) {
  std::map<std::string, ManifestEntry> entries;
  ManifestLoadStats stats;
  std::string error;
  EXPECT_TRUE(LoadManifest(TempPath("memtis_no_such_manifest.jsonl"), &entries,
                           &stats, &error));
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(stats.lines_total, 0u);
  EXPECT_TRUE(error.empty());
}

TEST(Manifest, ToleratesTruncatedTailAndDeduplicatesLastWins) {
  const std::string path = TempPath("memtis_manifest_tail.jsonl");
  const JobSpec spec_a = SmallSpec();
  JobSpec spec_b = SmallSpec();
  spec_b.system = "autonuma";
  spec_b.accesses = 20'000;

  SupervisedOutcome ok_a;
  ok_a.ok = true;
  ok_a.attempts = 1;
  ok_a.result = RunJob(spec_a);
  SupervisedOutcome failed_b;
  failed_b.attempts = 2;
  failed_b.failure.kind = FailureKind::kTimeout;
  failed_b.failure.signal = SIGKILL;
  failed_b.failure.message = "deadline exceeded";
  SupervisedOutcome ok_a_retried = ok_a;
  ok_a_retried.attempts = 3;

  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.Open(path));
    writer.Append(JobFingerprint(spec_a), spec_a, ok_a);
    writer.Append(JobFingerprint(spec_b), spec_b, failed_b);
    writer.Append(JobFingerprint(spec_a), spec_a, ok_a_retried);
    writer.Close();
  }
  {
    std::ofstream tail(path, std::ios::app);
    // A line from an older writer, which also wrote a "spec" projection of
    // the cell: unknown keys are ignored, so it still loads.
    tail << "{\"v\":1,\"fingerprint\":\"legacy\",\"cell\":\"legacy-cell\","
            "\"spec\":{\"system\":\"hemem\",\"benchmark\":\"btree\","
            "\"machine\":\"nvm\",\"fast_ratio\":0.25,\"base_seed\":1,"
            "\"seed_index\":0,\"engine_seed\":2},\"ok\":false,\"attempts\":2,"
            "\"failure\":{\"kind\":\"crash\",\"signal\":11}}\n";
    // Simulate a SIGKILL mid-append: a torn, unterminated final record.
    tail << "{\"v\":1,\"fingerprint\":\"dead";
  }

  std::map<std::string, ManifestEntry> entries;
  ManifestLoadStats stats;
  ASSERT_TRUE(LoadManifest(path, &entries, &stats));
  EXPECT_EQ(stats.lines_total, 5u);
  EXPECT_EQ(stats.lines_skipped, 1u);
  ASSERT_EQ(entries.size(), 3u);

  const ManifestEntry& legacy = entries.at("legacy");
  EXPECT_FALSE(legacy.ok);
  EXPECT_EQ(legacy.attempts, 2);
  EXPECT_EQ(legacy.failure.kind, FailureKind::kCrash);
  EXPECT_EQ(legacy.failure.signal, 11);

  const ManifestEntry& a = entries.at(JobFingerprint(spec_a));
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.attempts, 3);  // last-wins
  EXPECT_EQ(SerializeResult(a.result), SerializeResult(ok_a.result));

  const ManifestEntry& b = entries.at(JobFingerprint(spec_b));
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(b.failure.signal, SIGKILL);

  // A restarted run appends after the torn tail: the writer terminates it, so
  // the tail stays the one skipped line and the new record loads.
  SupervisedOutcome ok_b;
  ok_b.ok = true;
  ok_b.attempts = 3;
  ok_b.result = RunJob(spec_b);
  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.Open(path));
    writer.Append(JobFingerprint(spec_b), spec_b, ok_b);
  }
  std::map<std::string, ManifestEntry> resumed;
  ASSERT_TRUE(LoadManifest(path, &resumed, &stats));
  EXPECT_EQ(stats.lines_total, 6u);
  EXPECT_EQ(stats.lines_skipped, 1u);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_TRUE(resumed.at(JobFingerprint(spec_b)).ok);
  EXPECT_EQ(resumed.at(JobFingerprint(spec_b)).attempts, 3);
  std::remove(path.c_str());
}

TEST(ResilientSweep, FailFastCancelsRemainingCellsWithReproducers) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma", "hemem"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 30'000;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 3u);
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(jobs[0]));

  // keep_going stays false: the first failure cancels the rest.
  const std::vector<CellOutcome> outcomes =
      RunJobsResilient(jobs, CampaignOptions{}, 1);

  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[0].ran);
  size_t cancelled = 0;
  for (const CellOutcome& cell : outcomes) {
    if (!cell.ran) {
      EXPECT_EQ(cell.failure.kind, FailureKind::kCancelled);
      EXPECT_NE(cell.failure.reproducer_cmdline.find("memtis_run"),
                std::string::npos);
      ++cancelled;
    }
  }
  EXPECT_GE(cancelled, 1u);

  const std::string summary = FailureSummary(jobs, outcomes);
  EXPECT_NE(summary.find("repro: memtis_run"), std::string::npos) << summary;
  EXPECT_NE(summary.find("crash"), std::string::npos) << summary;
}

// The number of threads in this process, from /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// A supervised sweep forks every child from the calling thread: no thread
// is started, so no fork can race another thread's allocator lock or pipe.
TEST(ResilientSweep, SupervisedSweepForksFromOneThread) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma"};
  sweep.benchmarks = {"btree", "silo"};
  sweep.accesses = 20'000;
  sweep.seeds = 2;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_GE(jobs.size(), 8u);
  ASSERT_EQ(ThreadCount(), 1);

  std::vector<int> threads_seen;
  const std::vector<CellOutcome> outcomes = RunJobsResilient(
      jobs, CampaignOptions{}, 4, {},
      [&](size_t, size_t, size_t) { threads_seen.push_back(ThreadCount()); });
  for (const CellOutcome& cell : outcomes) {
    EXPECT_TRUE(cell.ok) << cell.failure.message;
  }
  ASSERT_EQ(threads_seen.size(), jobs.size());
  for (const int threads : threads_seen) {
    EXPECT_EQ(threads, 1);
  }
}

}  // namespace
}  // namespace memtis
