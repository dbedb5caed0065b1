// Checkpointed resume for sweeps: an append-only JSONL manifest of completed
// cells keyed by canonical JobSpec fingerprint (job_codec.h).
//
// Each line is one self-contained JSON object — {"v":1,"fingerprint":...,
// "cell":...,"ok":...,"attempts":...,"result"|"failure":{...}} — flushed as
// soon as the cell finishes, so a manifest is valid after a crash
// or SIGKILL at any byte: the loader skips lines that do not parse or do not
// decode (most commonly a truncated final line) and keeps going. Duplicate
// fingerprints are last-wins, which makes re-running with the same --resume
// path idempotent.
//
// On resume only ok entries are trusted; failed entries are recorded for the
// report but their cells re-run. Results round-trip through the lossless
// codec, so an aggregate built from manifest entries is byte-identical to one
// built from live runs (scripts/smoke_resume.sh proves this end to end).

#ifndef MEMTIS_SIM_SRC_RUNNER_MANIFEST_H_
#define MEMTIS_SIM_SRC_RUNNER_MANIFEST_H_

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"

namespace memtis {

// One completed cell: the line's {ok, attempts, result|failure} fields,
// decoded through SupervisedOutcome's field list.
using ManifestEntry = SupervisedOutcome;

struct ManifestLoadStats {
  size_t lines_total = 0;
  size_t lines_skipped = 0;  // unparseable or mistyped (e.g. truncated tail)
  size_t entries = 0;        // distinct fingerprints after last-wins dedup
};

// Loads a JSONL manifest into `out` (fingerprint -> entry). A missing file is
// success with zero entries (first run of a --resume sweep). Returns false
// only when the file exists but cannot be read.
bool LoadManifest(const std::string& path,
                  std::map<std::string, ManifestEntry>* out,
                  ManifestLoadStats* stats = nullptr,
                  std::string* error = nullptr);

// Append-only manifest writer; Append is serialized and flushes per line so
// concurrent writers interleave whole records, never bytes.
class ManifestWriter {
 public:
  ManifestWriter() = default;
  ~ManifestWriter();
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;

  // Opens `path` for appending. Returns false (with `error`) on failure.
  bool Open(const std::string& path, std::string* error = nullptr);
  bool is_open() const { return file_ != nullptr; }

  // Writes one completed-cell record. Safe to call from multiple threads.
  void Append(const std::string& fingerprint, const JobSpec& spec,
              const SupervisedOutcome& outcome);

  void Close();

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_MANIFEST_H_
