// Lossless wire codec for the resilience plane: JobResult/JobFailure to and
// from JSON, canonical cell fingerprints, and reproducer command lines.
//
// One codec serves every transport — the supervisor's child-to-parent result
// pipe, the --resume checkpoint manifest and the socket wire — so a cell
// reloaded from a manifest is bit-for-bit the cell that ran: integers
// round-trip through strtoull and doubles through the writer's "%.17g"
// formatting, which is why a resumed sweep serializes byte-identically to an
// uninterrupted one (tests/runner_test.cc, scripts/smoke_resume.sh). The
// Write*/Read* functions below are entry points over the records' one field
// lists (VisitFields, src/common/json_fields.h); reads fail on any field of
// the wrong JSON kind.

#ifndef MEMTIS_SIM_SRC_RUNNER_JOB_CODEC_H_
#define MEMTIS_SIM_SRC_RUNNER_JOB_CODEC_H_

#include <string>

#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"

namespace memtis {

class JsonWriter;
class JsonValue;

// Canonical, human-readable serialization of every field of a JobSpec that
// can influence its result. Environment scale knobs are folded in resolved
// (accesses and footprint_scale at their effective values), so running the
// same flags under a different MEMTIS_BENCH_* environment yields different
// fingerprints and a manifest can never be silently reused across scales.
// The opaque memtis_tweak hook contributes only a presence bit — resuming a
// tweaked sweep assumes the tweak function itself is unchanged.
std::string CanonicalJobSpec(const JobSpec& spec);

// 16-hex-digit FNV-1a64 of CanonicalJobSpec: the manifest key and the handle
// the MEMTIS_CRASH_CELL/MEMTIS_HANG_CELL hooks and `memtis_run --list-cells`
// speak.
std::string JobFingerprint(const JobSpec& spec);

// Full-fidelity JobResult record: metrics (with timeline), policy
// introspection, audit report, and epoch telemetry.
void WriteJobResultJson(JsonWriter& w, const JobResult& result);
bool ReadJobResultJson(const JsonValue& v, JobResult* out);

void WriteJobFailureJson(JsonWriter& w, const JobFailure& failure);

// Full-fidelity JobSpec record for shipping cells to remote workers
// (src/runner/work_queue.h); the read also requires a non-empty system and
// benchmark. Environment scale knobs are written resolved —
// accesses and footprint_scale at their effective values — so a worker
// running under a different MEMTIS_BENCH_* environment still reconstructs a
// spec whose fingerprint matches the coordinator's. The opaque memtis_tweak
// hook cannot cross a process boundary and is not serialized; a tweaked
// spec's fingerprint (presence bit) will not match on the worker, which
// rejects the cell as kInvalidSpec rather than silently running the untweaked
// config.
void WriteJobSpecJson(JsonWriter& w, const JobSpec& spec);
bool ReadJobSpecJson(const JsonValue& v, JobSpec* out);

// A memtis_run command line that re-executes exactly this cell (and, for
// attempt > 0, the exact retry: the attempt's engine seed is pinned with
// --engine-seed). Attached to every JobFailure so a failed cell in a
// thousand-cell sweep is one paste away from a local repro.
std::string ReproducerCmdline(const JobSpec& spec, int attempt);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_JOB_CODEC_H_
