// Crash isolation for sweep cells: runs one RunJob in a forked child with a
// wall-clock watchdog, streaming the JobResult back over a pipe as JSON.
//
// The supervision contract (see DESIGN.md "Job supervision"):
//
//  - Isolation. Everything RunJob can do wrong — SIGSEGV, a SIM_CHECK abort,
//    an audit-session abort, a runaway loop — downs only the forked child.
//    The parent turns the corpse into a structured JobFailure{kind, exit
//    status, signal, stderr tail, reproducer} and the sweep continues.
//  - Fidelity. A supervised success is byte-identical to an in-process run:
//    the child serializes the complete JobResult (metrics + timeline + audit
//    report + epochs) with the lossless codec in job_codec.h, so sinks cannot
//    tell the difference. tests/runner_test.cc holds this property.
//  - Deadlines. job_timeout_ms > 0 arms a watchdog; on overrun the child is
//    SIGKILLed and the failure kind is kTimeout.
//  - One attempt per call. Attempt k runs the cell with engine_seed' =
//    DeriveSeedOffset(engine_seed, k) — the same documented scheme that
//    spaces workload seeds — so every attempt is reproducible from
//    (spec, attempt) alone and the failure's reproducer command line pins
//    the exact attempt seed. Whether and when a failed cell runs its next
//    attempt is the caller's decision: retries and backoff live only in
//    Campaign (coordinator.h), for local and distributed sweeps alike.
//  - Single-threaded parents. A SupervisedAttempt is a pollable handle, so
//    one thread can drive many children at once (RunJobsResilient) and
//    every fork happens in a process with no other thread: a thread holding
//    an allocator lock at fork time would leave the child blocked on it
//    forever, and a sibling's fork between pipe() and closing the write end
//    would hold that pipe open past its child's exit.
//  - SIM_CHECK reporting. The child installs a check-failure hook
//    (src/common/check.h) that writes the failing expression through the
//    result pipe before aborting, so JobFailure::check_expr carries the
//    precise invariant even when stderr is noisy.
//
// Test-only injection hooks, honoured inside the supervised child (never in
// in-process runs):
//
//   MEMTIS_CRASH_CELL=<fingerprint>[:N]  SIM_CHECK-fail the cell with that
//       JobFingerprint on attempts 0..N-1 (default: every attempt). With N=1
//       and a campaign allowing two attempts a cell crashes once and then
//       succeeds — deterministically — which is how the retry tests are
//       built.
//   MEMTIS_HANG_CELL=<fingerprint>       spin in the named cell until the
//       watchdog kills it (a bounded safety cap exits eventually if no
//       deadline was armed).

#ifndef MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_
#define MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

#include "src/common/status.h"
#include "src/runner/sweep.h"

namespace memtis {

// Structured description of one failed (or never-run) sweep cell.
struct JobFailure {
  FailureKind kind = FailureKind::kNone;
  int exit_status = 0;        // kExit: the child's exit code
  int signal = 0;             // kCrash/kTimeout: the terminating signal
  std::string check_expr;     // failing SIM_CHECK expression, when reported
  std::string stderr_tail;    // last bytes of the child's stderr
  std::string reproducer_cmdline;  // memtis_run invocation reproducing it
  std::string message;        // one-line human summary

  // JSON field list (src/common/json_fields.h). An unknown kind name reads
  // back as kCrash.
  template <class V>
  void VisitFields(V& v) {
    v.Mapped("kind", [this] { return FailureKindName(kind); },
             [this](const std::string& name) {
               kind = FailureKindFromName(name).value_or(FailureKind::kCrash);
             });
    v.Field("exit_status", exit_status);
    v.Field("signal", signal);
    v.Field("check_expr", check_expr);
    v.Field("stderr_tail", stderr_tail);
    v.Field("reproducer_cmdline", reproducer_cmdline);
    v.Field("message", message);
  }
};

struct SupervisorOptions {
  // Wall-clock deadline per run in milliseconds; 0 disarms the watchdog.
  uint64_t job_timeout_ms = 0;
  // How much of the child's stderr to keep for JobFailure::stderr_tail.
  size_t stderr_tail_bytes = 4096;
  // Checkpointing (src/runner/checkpoint_runner.h). When checkpoint_ns > 0
  // and checkpoint_dir is set, the child runs RunJobCheckpointed: it writes
  // a snapshot of the full simulation state every checkpoint_ns of virtual
  // time under checkpoint_dir, keyed by (fingerprint, attempt). After a
  // SIGKILL-class death (watchdog timeout, or a crash whose signal is
  // SIGKILL) the handle relaunches the SAME attempt, which restores from the
  // newest valid snapshot and finishes byte-identical to an uninterrupted
  // run; a resume is not a new attempt. A cell CheckpointSupported refuses
  // (sharded, or carrying a memtis_tweak) fails with kInvalidSpec before
  // any fork.
  uint64_t checkpoint_ns = 0;
  std::string checkpoint_dir;
  // Bound on same-attempt resumes per attempt (a snapshot that keeps dying
  // mid-restore must not loop forever; once exhausted the SIGKILL-class
  // failure is reported like any other).
  int max_resume_retries = 8;
};

struct SupervisedOutcome {
  bool ok = false;
  int attempts = 0;    // global attempt number + 1
  JobResult result;    // valid when ok
  JobFailure failure;  // kind != kNone when !ok

  // JSON field list (src/common/json_fields.h), shared by the --resume
  // manifest line and the socket wire's result frame.
  template <class V>
  void VisitFields(V& v) {
    v.Field("ok", ok);
    v.Field("attempts", attempts);
    if (ok) {
      v.RequiredRecord("result", result);
    } else {
      v.RequiredRecord("failure", failure);
    }
  }
};

// The fate of one cell in a sweep.
struct CellOutcome {
  bool ok = false;
  bool ran = false;            // false: skipped by cancellation/fail-fast
  bool from_manifest = false;  // result reloaded from the resume manifest
  int attempts = 0;
  JobResult result;    // valid when ok
  JobFailure failure;  // kind != kNone when !ok
};

// The engine seed attempt `attempt` of a cell runs with (attempt 0 is the
// spec's own seed; documented alongside DeriveSeedOffset in sweep.h).
inline constexpr uint64_t AttemptEngineSeed(uint64_t engine_seed, int attempt) {
  return DeriveSeedOffset(engine_seed, static_cast<uint32_t>(attempt));
}

// One supervised attempt in flight: the forked child, its result and
// stderr pipes, and its watchdog. The constructor forks; the caller then
// polls the handle's pipes (alone, with Wait, or together with other
// handles' via AppendPollFds) and calls Service until it reports done.
// Nothing blocks except the final waitpid, which runs only once the child
// has closed both pipes, i.e. as it exits.
class SupervisedAttempt {
 public:
  SupervisedAttempt(const JobSpec& spec, int attempt,
                    const SupervisorOptions& options);
  // SIGKILLs and reaps a child that is still running.
  ~SupervisedAttempt();
  SupervisedAttempt(const SupervisedAttempt&) = delete;
  SupervisedAttempt& operator=(const SupervisedAttempt&) = delete;

  // Appends the pipes still open (POLLIN) to `fds`.
  void AppendPollFds(std::vector<pollfd>* fds) const;

  // Milliseconds until the watchdog fires (0 = due); -1 when none is armed.
  int MsUntilDeadline(uint64_t now_ms) const;

  // Non-blocking progress: drains readable pipes and fires an expired
  // watchdog; once both pipes are closed, reaps and classifies the child,
  // relaunching the same attempt after a resumable death. True once the
  // outcome is final.
  bool Service();

  // Polls this attempt alone for up to timeout_ms (-1 = no limit, capped
  // by the watchdog), then Services it.
  bool Wait(int timeout_ms);

  // Valid once Service or Wait has returned true.
  const SupervisedOutcome& outcome() const { return outcome_; }

 private:
  struct Pipe {
    int fd = -1;
    std::string data;
    size_t cap = 0;  // 0 = unbounded; otherwise keep only the last `cap` bytes
    void Drain();
  };

  void Launch();
  void Classify(int status);

  JobSpec spec_;  // with the attempt's engine seed folded in
  std::string fingerprint_;
  std::string reproducer_;
  int attempt_;
  SupervisorOptions options_;
  pid_t pid_ = -1;
  Pipe result_;
  Pipe err_;
  uint64_t deadline_ms_ = 0;
  bool timed_out_ = false;
  int resumes_ = 0;
  bool done_ = false;
  SupervisedOutcome outcome_;
};

// Runs global attempt `attempt` of one cell under supervision and waits for
// it: a SupervisedAttempt driven to completion.
SupervisedOutcome RunJobSupervised(const JobSpec& spec, int attempt,
                                   const SupervisorOptions& options);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_SUPERVISOR_H_
