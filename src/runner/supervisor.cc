#include "src/runner/supervisor.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/json_parse.h"
#include "src/common/netio.h"
#include "src/runner/checkpoint_runner.h"
#include "src/runner/job_codec.h"

namespace memtis {
namespace {

// Pipe payload tags: the child's first byte says what follows.
//   'R' + JSON  — a complete JobResult (success; child then _exit(0)s)
//   'C' + JSON  — a SIM_CHECK failure record, written by the check hook just
//                 before abort(); the JSON is {"expr","file","line"}.
constexpr char kTagResult = 'R';
constexpr char kTagCheck = 'C';

// Safety cap for MEMTIS_HANG_CELL when no watchdog is armed: exit instead of
// wedging a test run forever.
constexpr int kHangSafetyCapSeconds = 600;

void WriteFully(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // the parent is gone; nothing useful left to do
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
}

// Check-failure hook installed in the child: streams the failing expression
// through the result pipe (tagged 'C') so the parent attaches it to the
// structured JobFailure instead of fishing it out of stderr.
void ReportCheckThroughPipe(const char* expr, const char* file, int line,
                            void* arg) {
  const int fd = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  std::string payload(1, kTagCheck);
  JsonWriter w(&payload, 0);
  w.BeginObject();
  w.Field("expr", expr);
  w.Field("file", file);
  w.Field("line", line);
  w.EndObject();
  WriteFully(fd, payload.data(), payload.size());
}

// MEMTIS_CRASH_CELL / MEMTIS_HANG_CELL matching: "<fingerprint>[:N]" where N
// bounds the crashing attempts (crash while attempt < N; default all).
bool HookMatches(const char* env_name, const std::string& fingerprint,
                 int attempt) {
  const char* value = std::getenv(env_name);
  if (value == nullptr || value[0] == '\0') {
    return false;
  }
  std::string_view spec(value);
  int max_crashing_attempts = -1;  // -1 = every attempt
  if (const size_t colon = spec.find(':'); colon != std::string_view::npos) {
    max_crashing_attempts = std::atoi(std::string(spec.substr(colon + 1)).c_str());
    spec = spec.substr(0, colon);
  }
  if (spec != fingerprint) {
    return false;
  }
  return max_crashing_attempts < 0 || attempt < max_crashing_attempts;
}

bool Checkpointing(const SupervisorOptions& options) {
  return options.checkpoint_ns > 0 && !options.checkpoint_dir.empty();
}

[[noreturn]] void RunChild(const JobSpec& spec, const std::string& fingerprint,
                           int attempt, const SupervisorOptions& options,
                           int result_fd, int stderr_fd) {
  // SIGINT belongs to the sweep driver: a ^C cancels queued cells while
  // in-flight children drain, so children must outlive the terminal's
  // process-group-wide SIGINT.
  std::signal(SIGINT, SIG_IGN);
  dup2(stderr_fd, STDERR_FILENO);
  close(stderr_fd);
  SetCheckFailureHook(ReportCheckThroughPipe,
                      reinterpret_cast<void*>(static_cast<intptr_t>(result_fd)));

  if (HookMatches("MEMTIS_HANG_CELL", fingerprint, attempt)) {
    std::fprintf(stderr, "MEMTIS_HANG_CELL: cell %s attempt %d hanging\n",
                 fingerprint.c_str(), attempt);
    for (int i = 0; i < kHangSafetyCapSeconds * 20; ++i) {
      SleepMs(50);
    }
    _exit(86);
  }
  if (HookMatches("MEMTIS_CRASH_CELL", fingerprint, attempt)) {
    std::fprintf(stderr, "MEMTIS_CRASH_CELL: cell %s attempt %d crashing\n",
                 fingerprint.c_str(), attempt);
    // Through SIM_CHECK on purpose: the injected crash exercises the same
    // hook-report-then-abort path a real invariant failure takes.
    SIM_CHECK(false && "MEMTIS_CRASH_CELL injected crash");
  }

  JobResult result;
  if (Checkpointing(options)) {
    CheckpointContext ctx;
    ctx.interval_ns = options.checkpoint_ns;
    ctx.snapshot_base = options.checkpoint_dir + "/" + fingerprint + ".ckpt";
    ctx.fingerprint = fingerprint;
    ctx.attempt = static_cast<uint32_t>(attempt);
    result = RunJobCheckpointed(spec, ctx);
  } else {
    result = RunJob(spec);
  }
  std::string payload(1, kTagResult);
  JsonWriter w(&payload, 0);
  WriteJobResultJson(w, result);
  WriteFully(result_fd, payload.data(), payload.size());
  close(result_fd);
  // _exit, not exit: the forked child shares the parent's heap and must not
  // run atexit handlers, flush shared streams, or trip leak detection on
  // objects owned by parent threads that do not exist here.
  _exit(0);
}

bool ResumableDeath(const JobFailure& failure) {
  return failure.kind == FailureKind::kTimeout ||
         (failure.kind == FailureKind::kCrash && failure.signal == SIGKILL);
}

}  // namespace

void SupervisedAttempt::Pipe::Drain() {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      data.append(buf, static_cast<size_t>(n));
      if (cap != 0 && data.size() > cap) {
        data.erase(0, data.size() - cap);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // no more for now
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    close(fd);
    fd = -1;
    return;  // EOF or hard error: stop watching this pipe
  }
}

SupervisedAttempt::SupervisedAttempt(const JobSpec& spec, int attempt,
                                     const SupervisorOptions& options)
    : spec_(spec),
      fingerprint_(JobFingerprint(spec)),
      reproducer_(ReproducerCmdline(spec, attempt)),
      attempt_(attempt),
      options_(options) {
  spec_.engine_seed = AttemptEngineSeed(spec.engine_seed, attempt);
  outcome_.attempts = attempt + 1;
  std::string why;
  if (Checkpointing(options_) && !CheckpointSupported(spec_, &why)) {
    // Structured refusal, decided from the spec alone before any fork.
    outcome_.failure.kind = FailureKind::kInvalidSpec;
    outcome_.failure.message = "cell cannot checkpoint: " + why;
    outcome_.failure.reproducer_cmdline = reproducer_;
    done_ = true;
    return;
  }
  Launch();
}

SupervisedAttempt::~SupervisedAttempt() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  for (const int fd : {result_.fd, err_.fd}) {
    if (fd >= 0) {
      close(fd);
    }
  }
}

void SupervisedAttempt::Launch() {
  result_ = Pipe();
  err_ = Pipe();
  err_.cap = options_.stderr_tail_bytes;
  timed_out_ = false;

  // Reported before any cleanup close() can clobber errno.
  const auto fail = [this](const char* call) {
    outcome_.ok = false;
    outcome_.failure = JobFailure();
    outcome_.failure.kind = FailureKind::kProtocol;
    outcome_.failure.message =
        std::string(call) + "() failed: " + std::strerror(errno);
    outcome_.failure.reproducer_cmdline = reproducer_;
    done_ = true;
  };
  int result_pipe[2];
  int stderr_pipe[2];
  if (pipe(result_pipe) != 0) {
    fail("pipe");
    return;
  }
  if (pipe(stderr_pipe) != 0) {
    fail("pipe");
    close(result_pipe[0]);
    close(result_pipe[1]);
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    fail("fork");
    for (const int fd : {result_pipe[0], result_pipe[1], stderr_pipe[0],
                         stderr_pipe[1]}) {
      close(fd);
    }
    return;
  }
  if (pid == 0) {
    close(result_pipe[0]);
    close(stderr_pipe[0]);
    RunChild(spec_, fingerprint_, attempt_, options_, result_pipe[1],
             stderr_pipe[1]);
  }

  pid_ = pid;
  close(result_pipe[1]);
  close(stderr_pipe[1]);
  // Drain() reads until EAGAIN, so the parent's read ends must be
  // non-blocking (the child's write ends stay blocking — a full pipe must
  // backpressure the child, not drop its payload).
  fcntl(result_pipe[0], F_SETFL, O_NONBLOCK);
  fcntl(stderr_pipe[0], F_SETFL, O_NONBLOCK);
  result_.fd = result_pipe[0];
  err_.fd = stderr_pipe[0];
  deadline_ms_ = MonotonicMs() + options_.job_timeout_ms;
}

void SupervisedAttempt::AppendPollFds(std::vector<pollfd>* fds) const {
  for (const int fd : {result_.fd, err_.fd}) {
    if (fd >= 0) {
      fds->push_back({fd, POLLIN, 0});
    }
  }
}

int SupervisedAttempt::MsUntilDeadline(uint64_t now_ms) const {
  if (done_ || options_.job_timeout_ms == 0 || timed_out_) {
    return -1;
  }
  return now_ms >= deadline_ms_ ? 0 : static_cast<int>(deadline_ms_ - now_ms);
}

bool SupervisedAttempt::Service() {
  if (done_) {
    return true;
  }
  for (Pipe* pipe : {&result_, &err_}) {
    if (pipe->fd >= 0) {
      pipe->Drain();
    }
  }
  if (MsUntilDeadline(MonotonicMs()) == 0) {
    // Watchdog fired: down the child, then keep draining until EOF so the
    // stderr tail and any partial payload survive into the failure record.
    timed_out_ = true;
    kill(pid_, SIGKILL);
  }
  if (result_.fd >= 0 || err_.fd >= 0) {
    return false;
  }

  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  Classify(status);
  // SIGKILL-class deaths leave valid snapshots behind: relaunch the SAME
  // attempt so the child restores instead of recomputing.
  if (!outcome_.ok && Checkpointing(options_) &&
      ResumableDeath(outcome_.failure) &&
      resumes_ < options_.max_resume_retries) {
    ++resumes_;
    Launch();
    return done_;
  }
  if (!outcome_.ok) {
    outcome_.failure.reproducer_cmdline = reproducer_;
  }
  done_ = true;
  return true;
}

bool SupervisedAttempt::Wait(int timeout_ms) {
  if (done_) {
    return true;
  }
  std::vector<pollfd> fds;
  AppendPollFds(&fds);
  const int deadline = MsUntilDeadline(MonotonicMs());
  if (deadline >= 0 && (timeout_ms < 0 || deadline < timeout_ms)) {
    timeout_ms = deadline;
  }
  poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  return Service();
}

// Fills outcome_ from the reaped child: the result, or everything of the
// failure but the reproducer.
void SupervisedAttempt::Classify(int status) {
  outcome_.ok = false;
  JobFailure& failure = outcome_.failure;
  failure = JobFailure();
  failure.stderr_tail = err_.data;
  const std::string& payload = result_.data;
  if (!payload.empty() && payload[0] == kTagCheck) {
    JsonValue check;
    if (JsonValue::Parse(payload.substr(1), &check, nullptr)) {
      failure.check_expr = check.GetString("expr") + " at " +
                           check.GetString("file") + ":" +
                           std::to_string(check.GetInt("line"));
    }
  }

  if (timed_out_) {
    failure.kind = FailureKind::kTimeout;
    failure.signal = SIGKILL;
    failure.message = "deadline of " + std::to_string(options_.job_timeout_ms) +
                      " ms exceeded; child SIGKILLed";
    return;
  }
  if (WIFSIGNALED(status)) {
    failure.kind = FailureKind::kCrash;
    failure.signal = WTERMSIG(status);
    failure.message =
        std::string("child killed by signal ") + std::to_string(failure.signal);
    if (!failure.check_expr.empty()) {
      failure.message += " (SIM_CHECK: " + failure.check_expr + ")";
    }
    return;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    failure.kind = FailureKind::kExit;
    failure.exit_status = WEXITSTATUS(status);
    failure.message =
        "child exited with status " + std::to_string(failure.exit_status);
    return;
  }
  // Clean exit: the payload must be a parseable tagged result.
  if (payload.empty() || payload[0] != kTagResult) {
    failure.kind = FailureKind::kProtocol;
    failure.message = "child exited 0 without a result payload";
    return;
  }
  JsonValue doc;
  std::string parse_error;
  if (!JsonValue::Parse(payload.substr(1), &doc, &parse_error) ||
      !ReadJobResultJson(doc, &outcome_.result)) {
    failure.kind = FailureKind::kProtocol;
    failure.message = "unparseable result payload: " + parse_error;
    return;
  }
  failure = JobFailure();
  outcome_.ok = true;
}

SupervisedOutcome RunJobSupervised(const JobSpec& spec, int attempt,
                                   const SupervisorOptions& options) {
  SupervisedAttempt handle(spec, attempt, options);
  while (!handle.Wait(-1)) {
  }
  return handle.outcome();
}

}  // namespace memtis
