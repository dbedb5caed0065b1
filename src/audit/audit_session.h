// AuditSession: the invariant auditor and the epoch recorder behind one
// EngineObserver, plus the MEMTIS_AUDIT environment hook that lets any
// RunJob-based entry point (memtis_run, runner tests, figure benches) opt the
// whole process into every-tick auditing without code changes.

#ifndef MEMTIS_SIM_SRC_AUDIT_AUDIT_SESSION_H_
#define MEMTIS_SIM_SRC_AUDIT_AUDIT_SESSION_H_

#include <memory>
#include <optional>

#include "src/audit/audit.h"
#include "src/audit/epoch_recorder.h"

namespace memtis {

struct AuditSessionOptions {
  InvariantAuditor::Options invariants;
  // When true, also record per-epoch telemetry (the --audit-json payload).
  bool record_epochs = true;
  EpochRecorder::Options epochs;
};

class AuditSession : public EngineObserver {
 public:
  explicit AuditSession(const AuditSessionOptions& options = {});

  void OnTick(Engine& engine) override;
  void OnRunEnd(Engine& engine) override;

  InvariantAuditor& auditor() { return auditor_; }
  const AuditReport& report() const { return auditor_.report(); }
  // nullptr when epoch recording is disabled.
  const EpochRecorder* recorder() const {
    return recorder_.has_value() ? &*recorder_ : nullptr;
  }

  // {"report": {...}, "epochs": {...}?}
  void WriteJson(JsonWriter& w) const;

  // Checkpointing: auditor + (optional) recorder state. A load requires a
  // session constructed with the same options (recorder presence must match).
  void VisitState(StateCodec& c);

 private:
  InvariantAuditor auditor_;
  std::optional<EpochRecorder> recorder_;
};

// Returns true when the MEMTIS_AUDIT environment variable requests auditing
// (set and not "0"). Used by scripts/check.sh's second ctest pass.
bool EnvAuditEnabled();

// Environment hook: a fresh abort-on-violation, every-tick AuditSession when
// EnvAuditEnabled(), nullptr otherwise. One session per engine — callers
// running engines in parallel get independent instances.
std::unique_ptr<AuditSession> MakeEnvAuditSession();

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_AUDIT_AUDIT_SESSION_H_
