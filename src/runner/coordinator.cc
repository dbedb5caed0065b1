#include "src/runner/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <memory>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/netio.h"
#include "src/runner/job_codec.h"
#include "src/runner/supervisor.h"

namespace memtis {
namespace {

constexpr int kPollTickMs = 50;
constexpr uint64_t kBackoffCapMs = 10'000;

// The wait before attempt `attempt` >= 1: base << (attempt - 1), capped.
uint64_t BackoffMs(uint64_t base_ms, int attempt) {
  const int shift = attempt - 1 < 16 ? attempt - 1 : 16;
  const uint64_t ms = std::min(base_ms, kBackoffCapMs) << shift;
  return std::min(ms, kBackoffCapMs);
}

}  // namespace

Campaign::Campaign(const std::vector<JobSpec>& jobs,
                   const CampaignOptions& options,
                   const std::map<std::string, ManifestEntry>& preloaded,
                   const ProgressFn& progress, std::string* manifest_error)
    : jobs_(jobs), options_(options), progress_(progress) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
  fingerprints_.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    fingerprints_.push_back(JobFingerprint(job));
  }
  states_.resize(jobs.size());
  outcomes_.resize(jobs.size());
  if (!options_.manifest_path.empty()) {
    std::string open_error;
    if (!writer_.Open(options_.manifest_path, &open_error) &&
        manifest_error != nullptr) {
      *manifest_error = open_error;  // serve anyway; checkpointing is lost
    }
  }
  // Resume pass: trust only ok manifest entries; failed cells run again.
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto it = preloaded.find(fingerprints_[i]);
    if (it == preloaded.end() || !it->second.ok) {
      continue;
    }
    CellOutcome& out = outcomes_[i];
    out.ok = true;
    out.from_manifest = true;
    out.attempts = it->second.attempts;
    out.result = it->second.result;
    states_[i].phase = CellPhase::kDone;
    ++decided_;
    Report(i);
  }
}

void Campaign::CheckCancelled() {
  if (!cancel_latched_ && options_.cancelled != nullptr && options_.cancelled()) {
    cancel_latched_ = true;
  }
}

bool Campaign::Issuable(const CellState& st, uint64_t now_ms) const {
  if (st.phase != CellPhase::kPending || now_ms < st.not_before_ms) {
    return false;
  }
  // Once cancelled, only cells that already consumed an attempt keep going:
  // the distributed analogue of a local in-flight cell draining its retry
  // budget. Fresh cells stay pending and end up kCancelled.
  return !cancel_latched_ || st.attempt > 0;
}

std::optional<WorkItem> Campaign::NextIssue(uint64_t now_ms) {
  CheckCancelled();
  for (size_t i = 0; i < states_.size(); ++i) {
    CellState& st = states_[i];
    if (!Issuable(st, now_ms)) {
      continue;
    }
    st.phase = CellPhase::kIssued;
    st.deadline_ms = now_ms + options_.lease_timeout_ms;
    ++issued_count_;
    ++stats_.issues;
    WorkItem item;
    item.index = i;
    item.attempt = st.attempt;
    item.issue = st.issue;
    item.job_timeout_ms = options_.job_timeout_ms;
    item.checkpoint_ns = options_.checkpoint_ns;
    item.fingerprint = fingerprints_[i];
    item.spec = jobs_[i];
    return item;
  }
  return std::nullopt;
}

bool Campaign::Renew(size_t index, int attempt, uint64_t issue,
                     uint64_t now_ms) {
  if (index >= states_.size()) {
    return false;
  }
  CellState& st = states_[index];
  if (st.phase != CellPhase::kIssued || st.attempt != attempt ||
      st.issue != issue) {
    return false;
  }
  st.deadline_ms = now_ms + options_.lease_timeout_ms;
  return true;
}

bool Campaign::OnOutcome(size_t index, int attempt,
                         const SupervisedOutcome& outcome, uint64_t now_ms) {
  if (index >= states_.size()) {
    ++stats_.stale_results;
    return false;
  }
  CellState& st = states_[index];
  // Accept iff undecided and the attempt matches — regardless of which issue
  // delivered it: after a lease expiry, the original (presumed-dead) worker
  // and the re-issued one race the same attempt, and equal (spec, attempt)
  // means equal bytes, so first-in wins and the loser is stale below.
  if (st.phase == CellPhase::kDone || attempt != st.attempt) {
    ++stats_.stale_results;
    return false;
  }
  if (outcome.ok) {
    // attempts is recomputed, not trusted from the wire: attempt indices are
    // global, so this attempt is number attempt + 1.
    Decide(index, true, attempt + 1, outcome.result, JobFailure());
    return true;
  }
  if (IsRecoverable(outcome.failure.kind) &&
      attempt + 1 < options_.max_attempts) {
    if (st.phase == CellPhase::kIssued) {
      --issued_count_;
    }
    st.phase = CellPhase::kPending;
    st.attempt = attempt + 1;
    st.not_before_ms = now_ms + BackoffMs(options_.backoff_base_ms, st.attempt);
    ++st.issue;
    ++stats_.retries;
    return true;
  }
  JobFailure failure = outcome.failure;
  if (failure.reproducer_cmdline.empty()) {
    failure.reproducer_cmdline = ReproducerCmdline(jobs_[index], attempt);
  }
  Decide(index, false, attempt + 1, JobResult(), std::move(failure));
  return true;
}

void Campaign::OnLeaseLost(size_t index, uint64_t issue) {
  if (index >= states_.size()) {
    return;
  }
  CellState& st = states_[index];
  if (st.phase != CellPhase::kIssued || st.issue != issue) {
    return;  // decided, or a newer lease superseded this one already
  }
  --issued_count_;
  st.phase = CellPhase::kPending;
  ++st.issue;  // the dead tuple can never be claimed again
  ++st.reissues;
  ++stats_.leases_lost;
  if (st.reissues > options_.max_reissues) {
    JobFailure failure;
    failure.kind = FailureKind::kLeaseExpired;
    failure.message = "lease lost " + std::to_string(st.reissues) +
                      " times (worker died or stopped renewing); giving up";
    failure.reproducer_cmdline = ReproducerCmdline(jobs_[index], st.attempt);
    Decide(index, false, st.attempt, JobResult(), std::move(failure));
  }
}

void Campaign::ExpireStale(uint64_t now_ms) {
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].phase == CellPhase::kIssued &&
        now_ms > states_[i].deadline_ms) {
      OnLeaseLost(i, states_[i].issue);
    }
  }
}

bool Campaign::Finished() {
  CheckCancelled();
  if (decided_ == states_.size()) {
    return true;
  }
  if (!cancel_latched_ || issued_count_ != 0) {
    return false;
  }
  for (const CellState& st : states_) {
    if (st.phase == CellPhase::kPending && st.attempt > 0) {
      return false;  // a started cell still drains its retry budget
    }
  }
  return true;
}

std::vector<CellOutcome> Campaign::Finish() {
  writer_.Close();
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].phase == CellPhase::kDone) {
      continue;
    }
    CellOutcome& out = outcomes_[i];
    out.failure.kind = FailureKind::kCancelled;
    out.failure.message = "cell never ran (sweep cancelled)";
    out.failure.reproducer_cmdline =
        ReproducerCmdline(jobs_[i], states_[i].attempt);
  }
  return std::move(outcomes_);
}

void Campaign::Decide(size_t index, bool ok, int attempts, JobResult result,
                      JobFailure failure) {
  CellState& st = states_[index];
  if (st.phase == CellPhase::kIssued) {
    --issued_count_;
  }
  st.phase = CellPhase::kDone;
  ++decided_;
  if (writer_.is_open()) {
    SupervisedOutcome record;
    record.ok = ok;
    record.attempts = attempts;
    record.result = result;
    record.failure = failure;
    writer_.Append(fingerprints_[index], jobs_[index], record);
  }
  CellOutcome& out = outcomes_[index];
  out.ok = ok;
  out.ran = true;
  out.attempts = attempts;
  out.result = std::move(result);
  out.failure = std::move(failure);
  Report(index);
  if (!ok && !options_.keep_going) {
    cancel_latched_ = true;
  }
}

void Campaign::Report(size_t index) {
  ++progress_done_;
  if (progress_ != nullptr) {
    progress_(progress_done_, states_.size(), index);
  }
}

// ---------------------------------------------------------------------------
// Local loop: this thread forks every child, so no fork ever races another
// thread of this process.

std::vector<CellOutcome> RunJobsResilient(
    const std::vector<JobSpec>& jobs, const CampaignOptions& options,
    int concurrency, const std::map<std::string, ManifestEntry>& preloaded,
    const ProgressFn& progress, std::string* manifest_error) {
  Campaign campaign(jobs, options, preloaded, progress, manifest_error);
  SupervisorOptions sup;
  sup.job_timeout_ms = options.job_timeout_ms;
  sup.checkpoint_ns = options.checkpoint_ns;
  sup.checkpoint_dir = options.checkpoint_dir;
  const size_t slots = concurrency < 1 ? 1 : static_cast<size_t>(concurrency);

  struct Running {
    WorkItem item;
    std::unique_ptr<SupervisedAttempt> attempt;
  };
  std::vector<Running> running;
  std::vector<pollfd> fds;
  while (!campaign.Finished()) {
    while (running.size() < slots) {
      std::optional<WorkItem> item = campaign.NextIssue(MonotonicMs());
      if (!item) {
        break;
      }
      auto attempt =
          std::make_unique<SupervisedAttempt>(item->spec, item->attempt, sup);
      running.push_back({std::move(*item), std::move(attempt)});
    }

    // Wake on any child's output, the nearest watchdog, or the tick that
    // notices SIGINT and backoffs coming due. EINTR only ends the wait early.
    fds.clear();
    int timeout = kPollTickMs;
    const uint64_t now = MonotonicMs();
    for (const Running& run : running) {
      run.attempt->AppendPollFds(&fds);
      const int deadline = run.attempt->MsUntilDeadline(now);
      if (deadline >= 0 && deadline < timeout) {
        timeout = deadline;
      }
    }
    poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);

    for (size_t i = 0; i < running.size();) {
      const Running& run = running[i];
      if (!run.attempt->Service()) {
        ++i;
        continue;
      }
      campaign.OnOutcome(run.item.index, run.item.attempt,
                         run.attempt->outcome(), MonotonicMs());
      running.erase(running.begin() + static_cast<long>(i));
    }
  }
  return campaign.Finish();
}

// ---------------------------------------------------------------------------
// Serve loop.

namespace {

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<std::pair<size_t, uint64_t>> leases;  // (index, issue)
  bool dead = false;
};

void RemoveLease(Conn* conn, size_t index, uint64_t issue) {
  for (size_t i = 0; i < conn->leases.size(); ++i) {
    if (conn->leases[i].first == index && conn->leases[i].second == issue) {
      conn->leases.erase(conn->leases.begin() + static_cast<long>(i));
      return;
    }
  }
}

void HandleFrame(Conn* conn, const std::string& frame, Campaign* campaign) {
  WorkerRequest req;
  std::string parse_error;
  if (!ParseWorkerRequest(frame, &req, &parse_error)) {
    // A garbled peer costs only its own connection: the error reply is
    // best-effort, the drop releases its leases for deterministic re-issue.
    SendFrame(conn->fd, EncodeErrorReply(parse_error));
    conn->dead = true;
    return;
  }
  const uint64_t now = MonotonicMs();
  bool sent = true;
  switch (req.kind) {
    case WorkerRequest::Kind::kClaim: {
      if (std::optional<WorkItem> item = campaign->NextIssue(now)) {
        conn->leases.emplace_back(item->index, item->issue);
        sent = SendFrame(conn->fd, EncodeCellReply(*item));
      } else {
        sent = SendFrame(conn->fd,
                         EncodeSimpleReply(campaign->Finished()
                                               ? CoordinatorReply::Kind::kDone
                                               : CoordinatorReply::Kind::kRetry));
      }
      break;
    }
    case WorkerRequest::Kind::kRenew: {
      const bool renewed = campaign->Renew(req.index, req.attempt, req.issue, now);
      if (!renewed) {
        RemoveLease(conn, req.index, req.issue);
      }
      sent = SendFrame(conn->fd,
                       EncodeSimpleReply(renewed ? CoordinatorReply::Kind::kOk
                                                 : CoordinatorReply::Kind::kRevoked));
      break;
    }
    case WorkerRequest::Kind::kResult: {
      campaign->OnOutcome(req.index, req.attempt, req.outcome, now);
      RemoveLease(conn, req.index, req.issue);
      sent = SendFrame(conn->fd, EncodeSimpleReply(CoordinatorReply::Kind::kOk));
      break;
    }
  }
  if (!sent) {
    conn->dead = true;
  }
}

void DropConn(Conn* conn, Campaign* campaign) {
  for (const auto& [index, issue] : conn->leases) {
    campaign->OnLeaseLost(index, issue);
  }
  conn->leases.clear();
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
}

}  // namespace

std::vector<CellOutcome> ServeSocketCampaign(
    const std::vector<JobSpec>& jobs, const CampaignOptions& options,
    const NetAddress& listen, const std::function<void(uint16_t)>& on_listening,
    const std::map<std::string, ManifestEntry>& preloaded,
    const ProgressFn& progress, CampaignStats* stats, std::string* error,
    std::string* manifest_error) {
  uint16_t bound = 0;
  const int lfd = ListenTcp(listen, &bound, error);
  if (lfd < 0) {
    return {};
  }
  fcntl(lfd, F_SETFL, O_NONBLOCK);

  Campaign campaign(jobs, options, preloaded, progress, manifest_error);
  if (on_listening != nullptr) {
    on_listening(bound);
  }

  std::vector<std::unique_ptr<Conn>> conns;
  while (!campaign.Finished()) {
    campaign.ExpireStale(MonotonicMs());

    std::vector<pollfd> fds;
    fds.push_back({lfd, POLLIN, 0});
    for (const auto& conn : conns) {
      fds.push_back({conn->fd, POLLIN, 0});
    }
    const size_t polled_conns = conns.size();
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollTickMs);
    if (rc < 0 && errno != EINTR) {
      break;
    }

    for (size_t c = 0; c < polled_conns; ++c) {
      Conn* conn = conns[c].get();
      const short revents = fds[c + 1].revents;
      if (revents == 0 || conn->dead) {
        continue;
      }
      char buf[16384];
      for (;;) {
        const ssize_t n = read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
          conn->decoder.Feed(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        conn->dead = true;  // EOF or hard error: the worker is gone
        break;
      }
      std::string frame;
      while (!conn->dead && conn->decoder.Next(&frame)) {
        HandleFrame(conn, frame, &campaign);
      }
      if (!conn->dead && conn->decoder.bad()) {
        SendFrame(conn->fd, EncodeErrorReply("garbled frame stream"));
        conn->dead = true;
      }
    }
    for (size_t c = conns.size(); c-- > 0;) {
      if (conns[c]->dead) {
        DropConn(conns[c].get(), &campaign);
        conns.erase(conns.begin() + static_cast<long>(c));
      }
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = accept(lfd, nullptr, nullptr);
        if (cfd < 0) {
          break;
        }
        fcntl(cfd, F_SETFL, O_NONBLOCK);
        auto conn = std::make_unique<Conn>();
        conn->fd = cfd;
        conns.push_back(std::move(conn));
      }
    }
  }

  // Campaign decided: closing every connection is the workers' "done" signal
  // (they also get an explicit done reply if they ask first).
  for (const auto& conn : conns) {
    DropConn(conn.get(), &campaign);
  }
  close(lfd);
  if (stats != nullptr) {
    *stats = campaign.stats();
  }
  return campaign.Finish();
}

}  // namespace memtis
