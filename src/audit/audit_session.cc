#include "src/audit/audit_session.h"

#include <cstdlib>
#include <cstring>

#include "src/common/json.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

AuditSession::AuditSession(const AuditSessionOptions& options)
    : auditor_(options.invariants) {
  if (options.record_epochs) {
    recorder_.emplace(options.epochs);
  }
}

void AuditSession::OnTick(Engine& engine) {
  auditor_.OnTick(engine);
  if (recorder_.has_value()) {
    recorder_->OnTick(engine);
  }
}

void AuditSession::OnRunEnd(Engine& engine) {
  auditor_.OnRunEnd(engine);
  if (recorder_.has_value()) {
    recorder_->OnRunEnd(engine);
  }
}

void AuditSession::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("report");
  report().WriteJson(w);
  if (recorder_.has_value()) {
    w.Key("epochs");
    recorder_->WriteJson(w);
  }
  w.EndObject();
}

void AuditSession::VisitState(StateCodec& c) {
  c.Record("auditor", auditor_);
  // A session with different options took the snapshot when this disagrees.
  c.Check("recorder", recorder_.has_value());
  if (recorder_.has_value() && c.ok()) {
    c.Record("recorder", *recorder_);
  }
}

bool EnvAuditEnabled() {
  const char* env = std::getenv("MEMTIS_AUDIT");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::unique_ptr<AuditSession> MakeEnvAuditSession() {
  if (!EnvAuditEnabled()) {
    return nullptr;
  }
  AuditSessionOptions options;
  options.invariants.abort_on_violation = true;
  // Invariants only: the env hook certifies correctness in existing runs and
  // must stay cheap enough for every ctest case under sanitizers.
  options.record_epochs = false;
  return std::make_unique<AuditSession>(options);
}

}  // namespace memtis
