// Declarative experiment sweeps: JobSpec (one simulation cell), SweepSpec (a
// cartesian product of cells), and the parallel executor that runs them on a
// ThreadPool.
//
// JobSpec is the promoted, generalized form of the old bench/bench_util.h
// RunSpec: every figure/table bench and the memtis_run CLI describe runs with
// it, so one code path sizes machines, builds policies, and derives seeds.
//
// Seed derivation (the single documented scheme — nothing else may offset
// seeds): a job's workload seed is
//
//     workload_default_seed + DeriveSeedOffset(base_seed, seed_index)
//     DeriveSeedOffset(base, index) = base + index * kSeedStride
//
// `base_seed` names the experiment family (0 for the paper reproductions);
// `seed_index` enumerates the repetitions averaged per cell. The stride keeps
// repetitions far apart in seed space and reproduces the historical
// `index * 1000` offsets bit-for-bit at base_seed == 0. The engine's own RNG
// (placement dither) is seeded independently by `engine_seed` so changing the
// workload instantiation never silently changes engine-side randomness.
//
// Supervised retries reuse the same scheme on the engine axis: attempt k of a
// cell runs with DeriveSeedOffset(engine_seed, k) (attempt 0 is the spec's
// own seed), so a retried cell is reproducible from (spec, attempt) alone —
// see src/runner/supervisor.h.
//
// Determinism: RunJob is a pure function of its JobSpec (plus the
// MEMTIS_BENCH_* env scale knobs). RunJobs writes each result into the slot
// pre-assigned by job index, so sweep output is byte-identical for any thread
// count and any completion order.

#ifndef MEMTIS_SIM_SRC_RUNNER_SWEEP_H_
#define MEMTIS_SIM_SRC_RUNNER_SWEEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/audit/audit_session.h"
#include "src/audit/epoch_recorder.h"
#include "src/memtis/memtis_policy.h"
#include "src/runner/thread_pool.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"

namespace memtis {

// Environment scale knobs shared by every sweep (see the README's "Running
// sweeps" section): MEMTIS_BENCH_SCALE multiplies access budgets,
// MEMTIS_BENCH_FOOTPRINT multiplies workload footprints, MEMTIS_BENCH_SEEDS
// sets the default repetitions-per-cell.
double BenchAccessScale();
double BenchFootprintScale();
uint64_t DefaultAccesses(uint64_t base = 3'000'000);
int BenchSeeds();

inline constexpr uint64_t kSeedStride = 1000;

constexpr uint64_t DeriveSeedOffset(uint64_t base_seed, uint32_t seed_index) {
  return base_seed + static_cast<uint64_t>(seed_index) * kSeedStride;
}

// One simulation cell: a (system, benchmark, machine, sizing, seed) tuple.
struct JobSpec {
  std::string system;
  std::string benchmark;
  double fast_ratio = 1.0 / 3.0;  // fast tier as a fraction of the footprint
  uint64_t accesses = 0;          // 0 -> DefaultAccesses()
  bool cxl = false;               // capacity tier: false = NVM, true = CXL
  bool cpu_contention = true;
  uint64_t snapshot_interval_ns = 0;
  uint64_t fast_bytes_override = 0;  // nonzero: fixed fast tier (Fig. 6)
  double footprint_scale = 0.0;      // 0 -> BenchFootprintScale()
  // Seed plumbing — see the file comment. Do not add ad-hoc offsets.
  uint64_t base_seed = 0;
  uint32_t seed_index = 0;
  uint64_t engine_seed = 42;
  // Auditing (src/audit/): when set, the job runs under the invariant auditor
  // (violations collected into JobResult::audit_report) and, if
  // audit_epoch_interval_ns != 0, records per-epoch telemetry at that cadence.
  // Auditing is observation-only — metrics are byte-identical either way
  // (tests/differential_test.cc). Independent of the MEMTIS_AUDIT env hook,
  // which additionally audits every job in abort-on-violation mode.
  bool audit = false;
  uint64_t audit_epoch_interval_ns = 0;
  // Sharded-by-range execution (src/sim/sharded_engine.h): > 1 splits the run
  // into that many independent sub-simulations over workload slices, merged
  // deterministically. Requires a range-shardable benchmark (one whose
  // Workload::ShardSlice returns non-null — e.g. "stream"); RunJob aborts
  // loudly otherwise. 1 = the plain monolithic engine, byte-identical to
  // before the field existed (and omitted from the job fingerprint).
  uint32_t shards = 1;
  // Fault-injection spec (FaultPlan::Parse grammar; "" or "none" = fault-free,
  // "storm" = the dense preset). Parsed into EngineOptions::faults by RunJob;
  // a malformed spec aborts the job loudly — validate at the CLI instead.
  std::string faults;
  // Optional hook to tweak the MEMTIS config (sensitivity sweeps); applied
  // only when the system is a MEMTIS variant. A std::function so sweeps can
  // capture per-cell state (e.g. Fig. 13's interval multipliers).
  std::function<MemtisConfig(MemtisConfig)> memtis_tweak;

  uint64_t workload_seed_offset() const {
    return DeriveSeedOffset(base_seed, seed_index);
  }
  const char* machine_name() const { return cxl ? "cxl" : "nvm"; }
  // The environment-dependent defaults at their effective values.
  uint64_t resolved_accesses() const {
    return accesses != 0 ? accesses : DefaultAccesses();
  }
  double resolved_footprint_scale() const {
    return footprint_scale > 0.0 ? footprint_scale : BenchFootprintScale();
  }

  // JSON field list (src/common/json_fields.h) for shipping cells to remote
  // workers; see WriteJobSpecJson in src/runner/job_codec.h. Scale knobs go
  // out resolved, and memtis_tweak cannot cross a process boundary.
  template <class V>
  void VisitFields(V& v) {
    v.Field("system", system);
    v.Field("benchmark", benchmark);
    v.Field("fast_ratio", fast_ratio);
    v.Mapped("accesses", [this] { return resolved_accesses(); },
             [this](uint64_t n) { accesses = n; });
    v.Field("cxl", cxl);
    v.Field("cpu_contention", cpu_contention);
    v.Field("snapshot_interval_ns", snapshot_interval_ns);
    v.Field("fast_bytes_override", fast_bytes_override);
    v.Mapped("footprint_scale", [this] { return resolved_footprint_scale(); },
             [this](double scale) { footprint_scale = scale; });
    v.Field("base_seed", base_seed);
    v.Field("seed_index", seed_index);
    v.Field("engine_seed", engine_seed);
    v.Field("audit", audit);
    v.Field("audit_epoch_interval_ns", audit_epoch_interval_ns);
    v.Mapped("shards", [this] { return uint64_t{shards}; },
             [this](uint64_t n) {
               shards = n == 0 ? 1 : static_cast<uint32_t>(n);
             });
    v.Field("faults", faults);
  }
};

// Everything a sink or figure needs from one finished job.
struct JobResult {
  Metrics metrics;
  uint64_t footprint_bytes = 0;
  uint64_t fast_bytes = 0;
  // MEMTIS introspection (valid when the system is a MEMTIS variant).
  bool is_memtis = false;
  MemtisPolicy::Stats memtis_stats;
  double mean_ehr = 0.0;
  double sampler_cpu = 0.0;
  uint64_t pebs_load_period = 0;
  uint64_t pebs_store_period = 0;
  // HeMem introspection.
  uint64_t hemem_overalloc_bytes = 0;
  // Audit outputs (valid when the spec requested auditing).
  bool audited = false;
  AuditReport audit_report;
  uint64_t epoch_interval_ns = 0;
  uint64_t epochs_recorded_total = 0;
  std::vector<EpochSample> epochs;

  // JSON field list (src/common/json_fields.h) of the full-fidelity record
  // the supervisor pipe, the manifest and the socket wire carry.
  template <class V>
  void VisitFields(V& v) {
    v.Derived("v", [] { return uint64_t{1}; });
    v.Field("footprint_bytes", footprint_bytes);
    v.Field("fast_bytes", fast_bytes);
    v.RequiredRecord("metrics", metrics);
    v.Field("is_memtis", is_memtis);
    if (is_memtis) {
      v.Record("memtis_stats", memtis_stats);
      v.Field("mean_ehr", mean_ehr);
      v.Field("sampler_cpu", sampler_cpu);
      v.Field("pebs_load_period", pebs_load_period);
      v.Field("pebs_store_period", pebs_store_period);
    }
    if (v.WriteIf(hemem_overalloc_bytes != 0)) {
      v.Field("hemem_overalloc_bytes", hemem_overalloc_bytes);
    }
    v.Field("audited", audited);
    if (audited) {
      v.Record("audit_report", audit_report);
      v.Field("epoch_interval_ns", epoch_interval_ns);
      v.Field("epochs_recorded_total", epochs_recorded_total);
      v.Array("epochs", epochs);
    }
  }
};

// Runs one cell to completion. Thread-safe: builds its own workload, policy,
// and engine, touching no shared mutable state.
JobResult RunJob(const JobSpec& spec);

// One cell's components as BuildCell makes them from a spec: the single
// construction path of RunJob (sharded or not) and RunJobCheckpointed, so a
// checkpointed cell cannot drift from a plain one.
struct Cell {
  std::unique_ptr<Workload> workload;
  uint64_t footprint = 0;
  uint64_t fast = 0;
  MachineConfig machine;
  EngineOptions options;  // options.audit is `audit`
  // Null for a sharded spec, whose shards build their own.
  std::unique_ptr<TieringPolicy> policy;
  std::unique_ptr<AuditSession> audit;  // also null when nothing audits
  std::unique_ptr<Engine> engine;
};
Cell BuildCell(const JobSpec& spec);

// The JobResult of an unsharded cell whose engine finished with `metrics`.
JobResult CollectResult(const JobSpec& spec, const Cell& cell, Metrics metrics);

// The matching all-capacity (all-NVM/all-CXL + THP) baseline of `spec`.
JobSpec BaselineSpec(JobSpec spec);

// A cartesian sweep: jobs = benchmarks x machines x fast_ratios x seeds x
// systems (plus one baseline cell per seed when include_baseline is set).
struct SweepSpec {
  std::vector<std::string> systems;
  std::vector<std::string> benchmarks;
  std::vector<double> fast_ratios = {1.0 / 3.0};
  std::vector<std::string> machines = {"nvm"};  // "nvm" and/or "cxl"
  int seeds = 1;  // repetitions per cell: seed_index 0 .. seeds-1
  uint64_t base_seed = 0;
  uint64_t engine_seed = 42;  // propagated to every cell's JobSpec::engine_seed
  uint64_t accesses = 0;
  bool cpu_contention = true;
  uint64_t snapshot_interval_ns = 0;
  double footprint_scale = 0.0;
  uint64_t fast_bytes_override = 0;
  // Also run the "all-capacity" baseline once per (benchmark, machine, ratio,
  // seed) so sinks can report normalized performance.
  bool include_baseline = false;
  // Audit every job (see JobSpec::audit / audit_epoch_interval_ns).
  bool audit = false;
  uint64_t audit_epoch_interval_ns = 0;
  // Fault-injection spec applied to every job (see JobSpec::faults).
  std::string faults;
  // Sharded execution applied to every job (see JobSpec::shards). Requires
  // every benchmark in the sweep to be range-shardable when > 1.
  uint32_t shards = 1;
};

// Expands the product in a deterministic order: for each benchmark, machine,
// ratio, and seed_index, the baseline (if requested) followed by each system.
std::vector<JobSpec> ExpandJobs(const SweepSpec& sweep);

// Called after each job completes (serialized by an internal mutex):
// (jobs finished so far, total jobs, index of the job that just finished).
using ProgressFn = std::function<void(size_t, size_t, size_t)>;

// Executes the jobs on the pool; results[i] corresponds to jobs[i].
std::vector<JobResult> RunJobs(const std::vector<JobSpec>& jobs, ThreadPool& pool,
                               const ProgressFn& progress = nullptr);

struct SweepRun {
  std::vector<JobSpec> jobs;
  std::vector<JobResult> results;  // parallel to jobs
};

SweepRun RunSweep(const SweepSpec& sweep, ThreadPool& pool,
                  const ProgressFn& progress = nullptr);

// Stable grouping key for aggregation across seeds:
// "system|benchmark|machine|ratio" (ratio via JsonWriter::FormatDouble).
std::string CellKey(const JobSpec& spec);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_SWEEP_H_
