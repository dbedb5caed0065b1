#include "src/runner/work_queue.h"

#include <unistd.h>

#include <utility>

#include "src/common/json_fields.h"

namespace memtis {
namespace {

constexpr int kClaimRetrySleepMs = 60;
constexpr int kSocketReplyTimeoutMs = 30'000;

}  // namespace

bool ParseWorkerRequest(const std::string& frame, WorkerRequest* out,
                        std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  JsonValue doc;
  if (!JsonValue::Parse(frame, &doc, err)) {
    return false;
  }
  if (!doc.is_object()) {
    *err = "request frame is not a JSON object";
    return false;
  }
  const std::string type = doc.GetString("type");
  *out = WorkerRequest();
  if (type == "claim") {
    out->kind = WorkerRequest::Kind::kClaim;
    out->worker = doc.GetString("worker");
    return true;
  }
  if (type == "lease-renew" || type == "result") {
    if (doc.Find("index") == nullptr || doc.Find("attempt") == nullptr ||
        doc.Find("issue") == nullptr) {
      *err = "'" + type + "' frame missing index/attempt/issue";
      return false;
    }
    out->index = static_cast<size_t>(doc.GetUint("index"));
    out->attempt = static_cast<int>(doc.GetInt("attempt"));
    out->issue = doc.GetUint("issue");
    if (type == "lease-renew") {
      out->kind = WorkerRequest::Kind::kRenew;
      return true;
    }
    out->kind = WorkerRequest::Kind::kResult;
    out->worker = doc.GetString("worker");
    if (!DecodeJson(doc, &out->outcome)) {
      *err = "result frame with an unparseable outcome";
      return false;
    }
    if (out->outcome.attempts < 1) {
      *err = "result frame without a positive attempts count";
      return false;
    }
    return true;
  }
  *err = "unknown request type '" + type + "'";
  return false;
}

std::string EncodeClaimRequest(const std::string& worker) {
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", "claim");
  w.Field("worker", worker);
  w.EndObject();
  return out;
}

std::string EncodeRenewRequest(const WorkItem& item) {
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", "lease-renew");
  w.Field("index", static_cast<uint64_t>(item.index));
  w.Field("attempt", item.attempt);
  w.Field("issue", item.issue);
  w.EndObject();
  return out;
}

std::string EncodeResultRequest(const std::string& worker, const WorkItem& item,
                                const SupervisedOutcome& outcome) {
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", "result");
  w.Field("worker", worker);
  w.Field("index", static_cast<uint64_t>(item.index));
  w.Field("attempt", item.attempt);
  w.Field("issue", item.issue);
  EncodeJsonFields(w, outcome);
  w.EndObject();
  return out;
}

bool ParseCoordinatorReply(const std::string& frame, CoordinatorReply* out,
                           std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  JsonValue doc;
  if (!JsonValue::Parse(frame, &doc, err)) {
    return false;
  }
  if (!doc.is_object()) {
    *err = "reply frame is not a JSON object";
    return false;
  }
  const std::string type = doc.GetString("type");
  *out = CoordinatorReply();
  if (type == "cell") {
    out->kind = CoordinatorReply::Kind::kCell;
    const WorkItem& item = out->item;
    if (doc.Find("index") == nullptr || !DecodeJson(doc, &out->item) ||
        item.fingerprint.empty() || item.spec.system.empty() ||
        item.spec.benchmark.empty()) {
      *err = "cell reply with an unusable work item";
      return false;
    }
    return true;
  }
  if (type == "retry") {
    out->kind = CoordinatorReply::Kind::kRetry;
    return true;
  }
  if (type == "done") {
    out->kind = CoordinatorReply::Kind::kDone;
    return true;
  }
  if (type == "ok") {
    out->kind = CoordinatorReply::Kind::kOk;
    return true;
  }
  if (type == "revoked") {
    out->kind = CoordinatorReply::Kind::kRevoked;
    return true;
  }
  if (type == "error") {
    out->kind = CoordinatorReply::Kind::kError;
    out->message = doc.GetString("message");
    return true;
  }
  *err = "unknown reply type '" + type + "'";
  return false;
}

std::string EncodeCellReply(const WorkItem& item) {
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", "cell");
  EncodeJsonFields(w, item);
  w.EndObject();
  return out;
}

std::string EncodeSimpleReply(CoordinatorReply::Kind kind) {
  const char* type = "retry";
  switch (kind) {
    case CoordinatorReply::Kind::kRetry: type = "retry"; break;
    case CoordinatorReply::Kind::kDone: type = "done"; break;
    case CoordinatorReply::Kind::kOk: type = "ok"; break;
    case CoordinatorReply::Kind::kRevoked: type = "revoked"; break;
    case CoordinatorReply::Kind::kCell:
    case CoordinatorReply::Kind::kError:
      break;  // have dedicated encoders; fall back to retry
  }
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", type);
  w.EndObject();
  return out;
}

std::string EncodeErrorReply(const std::string& message) {
  std::string out;
  JsonWriter w(&out, 0);
  w.BeginObject();
  w.Field("type", "error");
  w.Field("message", message);
  w.EndObject();
  return out;
}

WorkQueue::WorkQueue(int fd, std::string worker)
    : fd_(fd), worker_(std::move(worker)) {}

WorkQueue::~WorkQueue() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

WorkQueue::ClaimStatus WorkQueue::Claim(WorkItem* item) {
  for (;;) {
    CoordinatorReply reply;
    if (!RoundTrip(EncodeClaimRequest(worker_), &reply)) {
      // EOF mid-campaign means the coordinator finished (it closes every
      // connection once the campaign is decided) or died; either way this
      // worker is done — a restarted coordinator re-issues whatever is
      // missing to freshly started workers.
      return ClaimStatus::kDone;
    }
    switch (reply.kind) {
      case CoordinatorReply::Kind::kCell:
        *item = reply.item;
        return ClaimStatus::kClaimed;
      case CoordinatorReply::Kind::kDone:
        return ClaimStatus::kDone;
      case CoordinatorReply::Kind::kRetry:
        SleepMs(kClaimRetrySleepMs);
        continue;
      case CoordinatorReply::Kind::kError:
        return ClaimStatus::kLost;
      default:
        continue;  // unexpected but harmless; ask again
    }
  }
}

bool WorkQueue::Renew(const WorkItem& item) {
  CoordinatorReply reply;
  if (!RoundTrip(EncodeRenewRequest(item), &reply)) {
    return false;
  }
  return reply.kind == CoordinatorReply::Kind::kOk;
}

bool WorkQueue::Complete(const WorkItem& item, const SupervisedOutcome& outcome) {
  CoordinatorReply reply;
  return RoundTrip(EncodeResultRequest(worker_, item, outcome), &reply);
}

bool WorkQueue::RoundTrip(const std::string& request, CoordinatorReply* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) {
    return false;
  }
  std::string frame;
  if (!SendFrame(fd_, request) ||
      !RecvFrame(fd_, &decoder_, &frame, kSocketReplyTimeoutMs) ||
      !ParseCoordinatorReply(frame, reply, nullptr)) {
    dead_ = true;
    return false;
  }
  return true;
}

std::unique_ptr<WorkQueue> MakeSocketWorkQueue(const NetAddress& addr,
                                               const std::string& worker_name,
                                               uint64_t connect_timeout_ms,
                                               std::string* error) {
  const uint64_t deadline = MonotonicMs() + connect_timeout_ms;
  std::string last_error;
  for (;;) {
    const int fd = ConnectTcp(addr, &last_error);
    if (fd >= 0) {
      return std::make_unique<WorkQueue>(
          fd, worker_name.empty() ? "worker" : worker_name);
    }
    if (MonotonicMs() >= deadline) {
      if (error != nullptr) {
        *error = last_error;
      }
      return nullptr;
    }
    SleepMs(100);
  }
}

}  // namespace memtis
