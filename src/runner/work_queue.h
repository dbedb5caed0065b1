// Worker-side view of a distributed campaign's cell queue, plus the wire
// format both ends (and the fuzz tests) share.
//
// A campaign cell is a pure function of its canonical JobSpec (job_codec.h),
// which makes cells relocatable: the coordinator (coordinator.h) issues
// (index, attempt, issue) leases, a worker claims one, runs exactly one
// supervised attempt at the given *global* attempt number, and reports the
// outcome keyed by fingerprint. Determinism contract:
//
//  - One issue == one attempt. A reported recoverable failure makes the
//    coordinator re-issue the cell at attempt + 1 (engine seed folded via
//    DeriveSeedOffset, exactly as local supervised retries do), so the retry
//    is byte-identical no matter which worker runs it.
//  - A lost lease (worker died or stopped renewing) re-issues the *same*
//    attempt under a fresh issue id: the lost attempt produced no evidence,
//    so re-running it reproduces the uninterrupted run's bytes — the same
//    reasoning as --resume re-running missing cells.
//  - Duplicate claims and duplicate results are harmless: the same (spec,
//    attempt) always produces the same bytes, and the coordinator ignores
//    outcomes for decided cells or stale attempts.
//
// Transport (`memtis_run --serve=[ADDR:]PORT` / `--worker=[HOST:]PORT`): one
// TCP connection per worker carrying one length-prefixed JSON frame per
// message (src/common/netio.h). Connection EOF is an instant lease loss, so a
// crashed worker's cells re-issue without waiting out the lease timeout.

#ifndef MEMTIS_SIM_SRC_RUNNER_WORK_QUEUE_H_
#define MEMTIS_SIM_SRC_RUNNER_WORK_QUEUE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/netio.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"

namespace memtis {

// One issued cell: exactly one supervised attempt of jobs[index] at global
// attempt number `attempt`. `issue` distinguishes successive leases of the
// same (index, attempt) so a revoked lease's claim can never be confused
// with its replacement.
struct WorkItem {
  size_t index = 0;
  int attempt = 0;
  uint64_t issue = 0;
  uint64_t job_timeout_ms = 0;  // per-attempt watchdog for the worker
  // Mid-cell snapshot cadence in virtual ns (0 = off). When set, the worker
  // runs the cell checkpointed (checkpoint_runner.h) into its checkpoint
  // directory, so a re-issued lease at the same attempt resumes instead of
  // restarting. Tolerant wire field: absent on older coordinators reads as 0.
  uint64_t checkpoint_ns = 0;
  std::string fingerprint;
  JobSpec spec;

  // JSON field list (src/common/json_fields.h) of a cell reply.
  template <class V>
  void VisitFields(V& v) {
    v.Field("index", index);
    v.Field("attempt", attempt);
    v.Field("issue", issue);
    v.Field("job_timeout_ms", job_timeout_ms);
    if (v.WriteIf(checkpoint_ns != 0)) {
      v.Field("checkpoint_ns", checkpoint_ns);
    }
    v.Field("fingerprint", fingerprint);
    v.RequiredRecord("spec", spec);
  }
};

// ---------------------------------------------------------------------------
// Wire protocol: one JSON object per frame.
//
// worker -> coordinator:
//   {"type":"claim","worker":W}
//   {"type":"lease-renew","index":N,"attempt":A,"issue":S}
//   {"type":"result","worker":W,"index":N,"attempt":A,"issue":S,
//    "ok":B,"attempts":N,"result":{...}|"failure":{...}}
// coordinator -> worker:
//   {"type":"cell","index":N,"attempt":A,"issue":S,"job_timeout_ms":T,
//    "checkpoint_ns":C,"fingerprint":F,"spec":{...}}
//   {"type":"retry"} | {"type":"done"} | {"type":"ok"} | {"type":"revoked"}
//   {"type":"error","message":M}

struct WorkerRequest {
  enum class Kind { kClaim, kRenew, kResult };
  Kind kind = Kind::kClaim;
  std::string worker;
  size_t index = 0;
  int attempt = 0;
  uint64_t issue = 0;
  SupervisedOutcome outcome;  // kResult only
};

// Strict parse of one worker->coordinator frame. Never aborts: any malformed
// frame yields false + *error, which the coordinator turns into a dropped
// connection (surfacing as a lease loss), never a crash.
bool ParseWorkerRequest(const std::string& frame, WorkerRequest* out,
                        std::string* error);
std::string EncodeClaimRequest(const std::string& worker);
std::string EncodeRenewRequest(const WorkItem& item);
std::string EncodeResultRequest(const std::string& worker, const WorkItem& item,
                                const SupervisedOutcome& outcome);

struct CoordinatorReply {
  enum class Kind { kCell, kRetry, kDone, kOk, kRevoked, kError };
  Kind kind = Kind::kRetry;
  WorkItem item;        // kCell only
  std::string message;  // kError only
};

bool ParseCoordinatorReply(const std::string& frame, CoordinatorReply* out,
                           std::string* error);
std::string EncodeCellReply(const WorkItem& item);
std::string EncodeSimpleReply(CoordinatorReply::Kind kind);
std::string EncodeErrorReply(const std::string& message);

// A worker's connection to the coordinator: strict request/reply pairs on
// one socket, serialized by a mutex so one queue may be shared across
// threads.
class WorkQueue {
 public:
  enum class ClaimStatus {
    kClaimed,  // *item holds a lease; run it, renew it, complete it
    kDone,     // the campaign is decided (or the coordinator hung up)
    kLost,     // the coordinator refused us; the worker should give up
  };

  // Takes ownership of a connected socket.
  WorkQueue(int fd, std::string worker);
  ~WorkQueue();
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  // Blocks until a cell is claimable, the campaign is over, or the
  // coordinator is gone.
  ClaimStatus Claim(WorkItem* item);

  // Heartbeats the lease on `item`. False = revoked (the worker may finish
  // the attempt anyway; a stale result is simply ignored).
  bool Renew(const WorkItem& item);

  // Reports the attempt's outcome. False = the campaign is gone.
  bool Complete(const WorkItem& item, const SupervisedOutcome& outcome);

 private:
  bool RoundTrip(const std::string& request, CoordinatorReply* reply);

  int fd_;
  std::string worker_;
  std::mutex mu_;
  FrameDecoder decoder_;
  bool dead_ = false;
};

// Connects to a coordinator at `addr`, retrying for up to
// connect_timeout_ms so workers may start first.
std::unique_ptr<WorkQueue> MakeSocketWorkQueue(const NetAddress& addr,
                                               const std::string& worker_name,
                                               uint64_t connect_timeout_ms,
                                               std::string* error);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_WORK_QUEUE_H_
