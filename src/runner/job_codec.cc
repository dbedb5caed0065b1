#include "src/runner/job_codec.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/json_fields.h"

namespace memtis {
namespace {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

std::string CanonicalJobSpec(const JobSpec& spec) {
  std::string out;
  out.reserve(192);
  out += "system=";
  out += spec.system;
  out += ";benchmark=";
  out += spec.benchmark;
  out += ";machine=";
  out += spec.machine_name();
  out += ";ratio=";
  out += JsonWriter::FormatDouble(spec.fast_ratio);
  out += ";accesses=";
  out += std::to_string(spec.resolved_accesses());
  out += ";contention=";
  out += spec.cpu_contention ? '1' : '0';
  out += ";snapshot_ns=";
  out += std::to_string(spec.snapshot_interval_ns);
  out += ";fast_bytes=";
  out += std::to_string(spec.fast_bytes_override);
  out += ";fscale=";
  out += JsonWriter::FormatDouble(spec.resolved_footprint_scale());
  out += ";base_seed=";
  out += std::to_string(spec.base_seed);
  out += ";seed_index=";
  out += std::to_string(spec.seed_index);
  out += ";engine_seed=";
  out += std::to_string(spec.engine_seed);
  out += ";audit=";
  out += spec.audit ? '1' : '0';
  out += ";epoch_ns=";
  out += std::to_string(spec.audit_epoch_interval_ns);
  out += ";faults=";
  out += spec.faults;
  out += ";tweak=";
  out += spec.memtis_tweak != nullptr ? '1' : '0';
  // Appended only for sharded cells so every pre-sharding fingerprint (resume
  // manifests, committed sweep files) hashes exactly as before.
  if (spec.shards > 1) {
    out += ";shards=";
    out += std::to_string(spec.shards);
  }
  return out;
}

std::string JobFingerprint(const JobSpec& spec) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a64(CanonicalJobSpec(spec)));
  return buf;
}

void WriteJobResultJson(JsonWriter& w, const JobResult& result) {
  EncodeJson(w, result);
}

bool ReadJobResultJson(const JsonValue& v, JobResult* out) {
  return DecodeJson(v, out);
}

void WriteJobFailureJson(JsonWriter& w, const JobFailure& failure) {
  EncodeJson(w, failure);
}

void WriteJobSpecJson(JsonWriter& w, const JobSpec& spec) {
  EncodeJson(w, spec);
}

bool ReadJobSpecJson(const JsonValue& v, JobSpec* out) {
  return DecodeJson(v, out) && !out->system.empty() && !out->benchmark.empty();
}

std::string ReproducerCmdline(const JobSpec& spec, int attempt) {
  std::string cmd = "memtis_run --supervise";
  cmd += " --systems=" + spec.system;
  cmd += " --benchmarks=" + spec.benchmark;
  cmd += " --machines=";
  cmd += spec.machine_name();
  if (spec.fast_bytes_override != 0) {
    cmd += " --fast-bytes=" + std::to_string(spec.fast_bytes_override);
  } else {
    cmd += " --ratios=" + JsonWriter::FormatDouble(spec.fast_ratio);
  }
  // One cell: collapse the seed axis into base-seed so seed_index 0 of the
  // repro derives this cell's exact workload_seed_offset.
  cmd += " --seeds=1 --base-seed=" + std::to_string(spec.workload_seed_offset());
  cmd += " --engine-seed=" +
         std::to_string(AttemptEngineSeed(spec.engine_seed, attempt));
  cmd += " --accesses=" + std::to_string(spec.resolved_accesses());
  cmd += " --footprint-scale=" +
         JsonWriter::FormatDouble(spec.resolved_footprint_scale());
  if (spec.snapshot_interval_ns != 0) {
    cmd += " --snapshot-ns=" + std::to_string(spec.snapshot_interval_ns);
  }
  if (!spec.cpu_contention) {
    cmd += " --no-contention";
  }
  if (spec.audit) {
    cmd += " --audit";
    if (spec.audit_epoch_interval_ns != 0) {
      cmd += " --audit-epoch-ns=" + std::to_string(spec.audit_epoch_interval_ns);
    }
  }
  if (!spec.faults.empty()) {
    cmd += " --faults=" + spec.faults;
  }
  return cmd;
}

}  // namespace memtis
