#include "src/runner/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "src/audit/audit_session.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/memtis/policy_registry.h"
#include "src/policies/hemem.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/workloads/registry.h"

namespace memtis {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  return std::atof(value);
}

}  // namespace

double BenchAccessScale() {
  static const double kScale = EnvDouble("MEMTIS_BENCH_SCALE", 1.0);
  return kScale;
}

double BenchFootprintScale() {
  static const double kScale = EnvDouble("MEMTIS_BENCH_FOOTPRINT", 0.25);
  return kScale;
}

uint64_t DefaultAccesses(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * BenchAccessScale());
}

int BenchSeeds() {
  static const int kSeeds =
      std::max(1, static_cast<int>(EnvDouble("MEMTIS_BENCH_SEEDS", 1.0)));
  return kSeeds;
}

namespace {

// The policy `spec` names, sized for (footprint, fast), with the spec's
// memtis_tweak applied to a MEMTIS variant.
std::unique_ptr<TieringPolicy> BuildPolicy(const JobSpec& spec,
                                           uint64_t footprint, uint64_t fast) {
  if (spec.memtis_tweak == nullptr || spec.system.rfind("memtis", 0) != 0) {
    return MakePolicy(spec.system, footprint, fast);
  }
  MemtisConfig cfg = MemtisConfig::ScaledDefaults(footprint, fast);
  if (spec.system == "memtis-ns") {
    cfg.enable_split = false;
    cfg.enable_collapse = false;
  }
  return std::make_unique<MemtisPolicy>(spec.memtis_tweak(cfg));
}

// Auditing: the spec's request wins (collect mode); otherwise the
// MEMTIS_AUDIT env hook may install an abort-on-violation session (or
// none). One session per engine — RunJob stays thread-safe.
std::unique_ptr<AuditSession> BuildAuditSession(const JobSpec& spec) {
  if (!spec.audit) {
    return MakeEnvAuditSession();
  }
  AuditSessionOptions audit_opts;
  audit_opts.record_epochs = spec.audit_epoch_interval_ns != 0;
  if (spec.audit_epoch_interval_ns != 0) {
    audit_opts.epochs.interval_ns = spec.audit_epoch_interval_ns;
  }
  return std::make_unique<AuditSession>(audit_opts);
}

// Sharded-by-range execution: N independent sub-simulations over workload
// slices (ShardSlice aborts inside ShardedEngine::Run when the benchmark is
// not range-shardable), merged deterministically. Policies are built per
// shard, sized for the shard's machine slice; per-policy introspection
// (MEMTIS/HeMem stats) is per-shard state and stays out of the merged result.
JobResult RunSharded(const JobSpec& spec, Cell& cell) {
  const uint32_t n = spec.shards;
  const MachineConfig slice = ShardedEngine::SliceMachine(cell.machine, n);
  const uint64_t fast_slice = slice.mem.fast_frames * kPageSize;
  const uint64_t footprint_slice = cell.footprint / n;
  PolicyFactory factory = [&] {
    return BuildPolicy(spec, footprint_slice, fast_slice);
  };
  std::vector<std::unique_ptr<AuditSession>> shard_audit(n);
  ShardedOptions sopts;
  sopts.shards = n;
  sopts.threads = 1;  // RunJobs already parallelizes across cells
  sopts.engine = cell.options;
  sopts.audit_for_shard = [&](uint32_t i) -> EngineObserver* {
    shard_audit[i] = BuildAuditSession(spec);
    return shard_audit[i].get();
  };
  ShardedEngine sharded(cell.machine, factory, sopts);
  JobResult out;
  out.metrics = sharded.Run(*cell.workload);
  out.footprint_bytes = cell.footprint;
  out.fast_bytes = cell.fast;
  if (spec.audit) {
    // Shard-ordered merge: counters summed, recorded violations and epoch
    // samples concatenated in shard order.
    out.audited = true;
    for (uint32_t i = 0; i < n; ++i) {
      const AuditReport& r = shard_audit[i]->report();
      out.audit_report.ticks_audited += r.ticks_audited;
      out.audit_report.checks_run += r.checks_run;
      out.audit_report.violations_total += r.violations_total;
      out.audit_report.violations.insert(out.audit_report.violations.end(),
                                         r.violations.begin(),
                                         r.violations.end());
      if (const EpochRecorder* recorder = shard_audit[i]->recorder()) {
        out.epoch_interval_ns = recorder->options().interval_ns;
        out.epochs_recorded_total += recorder->recorded_total();
        // samples() materializes a fresh vector per call: grab it once
        // (begin/end of two separate temporaries is UB).
        const std::vector<EpochSample> shard_epochs = recorder->samples();
        out.epochs.insert(out.epochs.end(), shard_epochs.begin(),
                          shard_epochs.end());
      }
    }
  }
  return out;
}

}  // namespace

Cell BuildCell(const JobSpec& spec) {
  Cell cell;
  cell.workload = MakeWorkload(spec.benchmark, spec.resolved_footprint_scale(),
                               spec.workload_seed_offset());
  cell.footprint = cell.workload->footprint_bytes();
  cell.fast = spec.fast_bytes_override != 0
                  ? spec.fast_bytes_override
                  : static_cast<uint64_t>(static_cast<double>(cell.footprint) *
                                          spec.fast_ratio);
  const uint64_t capacity = cell.footprint + cell.footprint / 2;
  cell.machine = spec.cxl ? MakeCxlMachine(cell.fast, capacity)
                          : MakeNvmMachine(cell.fast, capacity);
  cell.options.max_accesses = spec.resolved_accesses();
  cell.options.snapshot_interval_ns = spec.snapshot_interval_ns;
  cell.options.cpu_contention = spec.cpu_contention;
  cell.options.seed = spec.engine_seed;
  if (!spec.faults.empty()) {
    std::string fault_error;
    SIM_CHECK(FaultPlan::Parse(spec.faults, &cell.options.faults, &fault_error) &&
              "bad JobSpec::faults spec (validate at the CLI)");
  }
  if (spec.shards > 1) {
    return cell;
  }
  cell.policy = BuildPolicy(spec, cell.footprint, cell.fast);
  cell.audit = BuildAuditSession(spec);
  cell.options.audit = cell.audit.get();
  cell.engine = std::make_unique<Engine>(cell.machine, *cell.policy, cell.options);
  return cell;
}

JobResult CollectResult(const JobSpec& spec, const Cell& cell, Metrics metrics) {
  JobResult out;
  out.metrics = std::move(metrics);
  if (spec.audit) {
    out.audited = true;
    out.audit_report = cell.audit->report();
    if (const EpochRecorder* recorder = cell.audit->recorder()) {
      out.epoch_interval_ns = recorder->options().interval_ns;
      out.epochs_recorded_total = recorder->recorded_total();
      out.epochs = recorder->samples();
    }
  }
  out.footprint_bytes = cell.footprint;
  out.fast_bytes = cell.fast;
  if (const auto* memtis = dynamic_cast<const MemtisPolicy*>(cell.policy.get())) {
    out.is_memtis = true;
    out.memtis_stats = memtis->stats();
    out.mean_ehr = memtis->mean_ehr();
    out.sampler_cpu =
        out.metrics.cpu.core_share(DaemonKind::kSampler, out.metrics.app_ns);
    out.pebs_load_period = memtis->sampler().period(SampleType::kLlcLoadMiss);
    out.pebs_store_period = memtis->sampler().period(SampleType::kStore);
  }
  if (const auto* hemem = dynamic_cast<const HeMemPolicy*>(cell.policy.get())) {
    out.hemem_overalloc_bytes = hemem->over_allocated_bytes();
  }
  return out;
}

JobResult RunJob(const JobSpec& spec) {
  Cell cell = BuildCell(spec);
  if (spec.shards > 1) {
    return RunSharded(spec, cell);
  }
  return CollectResult(spec, cell, cell.engine->Run(*cell.workload));
}

JobSpec BaselineSpec(JobSpec spec) {
  spec.system = "all-capacity";
  spec.memtis_tweak = nullptr;
  return spec;
}

std::vector<JobSpec> ExpandJobs(const SweepSpec& sweep) {
  SIM_CHECK(!sweep.systems.empty() || sweep.include_baseline);
  SIM_CHECK(!sweep.benchmarks.empty());
  SIM_CHECK(!sweep.fast_ratios.empty());
  SIM_CHECK(!sweep.machines.empty());
  SIM_CHECK(sweep.seeds >= 1);

  std::vector<JobSpec> jobs;
  for (const std::string& benchmark : sweep.benchmarks) {
    for (const std::string& machine : sweep.machines) {
      SIM_CHECK((machine == "nvm" || machine == "cxl") && "unknown machine type");
      for (double ratio : sweep.fast_ratios) {
        for (int seed = 0; seed < sweep.seeds; ++seed) {
          JobSpec cell;
          cell.benchmark = benchmark;
          cell.cxl = machine == "cxl";
          cell.fast_ratio = ratio;
          cell.base_seed = sweep.base_seed;
          cell.seed_index = static_cast<uint32_t>(seed);
          cell.engine_seed = sweep.engine_seed;
          cell.accesses = sweep.accesses;
          cell.cpu_contention = sweep.cpu_contention;
          cell.snapshot_interval_ns = sweep.snapshot_interval_ns;
          cell.footprint_scale = sweep.footprint_scale;
          cell.fast_bytes_override = sweep.fast_bytes_override;
          cell.audit = sweep.audit;
          cell.audit_epoch_interval_ns = sweep.audit_epoch_interval_ns;
          cell.faults = sweep.faults;
          cell.shards = sweep.shards;
          if (sweep.include_baseline) {
            JobSpec baseline = cell;
            baseline.system = "all-capacity";
            jobs.push_back(std::move(baseline));
          }
          for (const std::string& system : sweep.systems) {
            JobSpec job = cell;
            job.system = system;
            jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  return jobs;
}

std::vector<JobResult> RunJobs(const std::vector<JobSpec>& jobs, ThreadPool& pool,
                               const ProgressFn& progress) {
  std::vector<JobResult> results(jobs.size());
  std::mutex progress_mu;
  size_t done = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    pool.Submit([&jobs, &results, &progress, &progress_mu, &done, i] {
      results[i] = RunJob(jobs[i]);
      if (progress != nullptr) {
        std::lock_guard<std::mutex> lock(progress_mu);
        progress(++done, jobs.size(), i);
      }
    });
  }
  pool.Wait();
  return results;
}

SweepRun RunSweep(const SweepSpec& sweep, ThreadPool& pool,
                  const ProgressFn& progress) {
  SweepRun run;
  run.jobs = ExpandJobs(sweep);
  run.results = RunJobs(run.jobs, pool, progress);
  return run;
}

std::string CellKey(const JobSpec& spec) {
  std::string key = spec.system;
  key += '|';
  key += spec.benchmark;
  key += '|';
  key += spec.machine_name();
  key += '|';
  key += JsonWriter::FormatDouble(spec.fast_ratio);
  return key;
}

}  // namespace memtis
