// Result sinks: serialize finished sweeps to JSON/CSV with stable field
// ordering, and aggregate per-seed values into mean/stddev/geomean.
//
// Sinks consume the (jobs, results) vectors of a SweepRun in job order, so
// their output inherits RunJobs' determinism: byte-identical for any thread
// count. Nothing time- or host-dependent (durations, thread counts, dates)
// is ever serialized. The JSON schema is documented in the README under
// "Running sweeps".

#ifndef MEMTIS_SIM_SRC_RUNNER_RESULT_SINK_H_
#define MEMTIS_SIM_SRC_RUNNER_RESULT_SINK_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"

namespace memtis {

// Serializes one job (spec echo + full Metrics + policy introspection).
std::string JobToJson(const JobSpec& spec, const JobResult& result, size_t id,
                      int indent = 0);

// Groups values by an opaque cell key (insertion-ordered) and reports
// mean/stddev/geomean across them. Feed it one value per seed repetition —
// this is the single seed-averaging implementation; benches must not hand-roll
// their own accumulation loops.
class SweepAggregator {
 public:
  void Add(std::string_view cell, double value);

  bool Has(std::string_view cell) const;
  // Cell keys in first-insertion order.
  const std::vector<std::string>& cells() const { return order_; }
  const std::vector<double>& values(std::string_view cell) const;

  // Arithmetic mean in insertion order (empty cell -> 0).
  double Mean(std::string_view cell) const;
  // Sample standard deviation (n-1 denominator; 0 for n < 2).
  double Stddev(std::string_view cell) const;
  double GeoMeanOf(std::string_view cell) const;

 private:
  std::vector<std::string> order_;
  std::vector<std::vector<double>> values_;  // parallel to order_

  const std::vector<double>* Find(std::string_view cell) const;
};

// Serialization options shared by the sinks.
struct SinkOptions {
  int indent = 2;           // JSON pretty-print indent (0 = compact)
  bool timelines = false;   // include each job's Metrics timeline
  bool aggregates = true;   // include the per-cell aggregate section
};

// The full sweep document: {"schema_version", "sweep", "jobs", "aggregates"}.
// schema_version 3: job metrics may carry a per_tenant array (tenant plane).
std::string SweepToJson(const SweepSpec& sweep, const std::vector<JobSpec>& jobs,
                        const std::vector<JobResult>& results,
                        const SinkOptions& options = {});

// Outcome-aware sweep document (schema_version 4; was 2 before per_tenant
// metrics were added) for resilient runs: jobs
// that completed appear in "jobs" (with their attempt count), failed and
// never-run cells appear in "failures" with fingerprints and reproducer
// command lines, and a "summary" block counts
// cells_total/cells_completed/cells_failed/cells_not_run. Aggregates cover
// completed cells only. Nothing records *how* a completed cell's result was
// obtained (live vs manifest), so a resumed sweep serializes byte-identically
// to an uninterrupted one.
std::string SweepToJson(const SweepSpec& sweep, const std::vector<JobSpec>& jobs,
                        const std::vector<CellOutcome>& outcomes,
                        const SinkOptions& options = {});

// One row per job with a fixed header; scalars only (no timelines).
std::string SweepToCsv(const std::vector<JobSpec>& jobs,
                       const std::vector<JobResult>& results);

// Outcome-aware CSV: completed cells only, with a trailing attempts column.
std::string SweepToCsv(const std::vector<JobSpec>& jobs,
                       const std::vector<CellOutcome>& outcomes);

// Human-readable report of every failed or never-run cell, one block per
// cell with its kind, message, and reproducer command line. Empty string
// when everything completed.
std::string FailureSummary(const std::vector<JobSpec>& jobs,
                           const std::vector<CellOutcome>& outcomes);

// RFC 4180 CSV field escaping: fields containing a comma, double quote, CR,
// or LF are wrapped in double quotes with embedded quotes doubled; all other
// fields pass through unchanged.
std::string CsvEscape(std::string_view field);

// The audit document for --audit-json: per-job invariant reports and (when
// recorded) epoch telemetry, plus a sweep-level summary. Schema in the
// README under "Auditing and epoch telemetry".
std::string AuditToJson(const std::vector<JobSpec>& jobs,
                        const std::vector<JobResult>& results,
                        const SinkOptions& options = {});

// Outcome-aware audit document: audited completed cells only.
std::string AuditToJson(const std::vector<JobSpec>& jobs,
                        const std::vector<CellOutcome>& outcomes,
                        const SinkOptions& options = {});

// Writes `data` to `path`, or to stdout when path is empty or "-".
// Returns false (with a note on stderr) if the file cannot be written.
bool WriteResultFile(const std::string& path, std::string_view data);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_RESULT_SINK_H_
