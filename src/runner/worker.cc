#include "src/runner/worker.h"

#include <algorithm>
#include <climits>

#include <sys/stat.h>
#include <unistd.h>

#include "src/common/netio.h"
#include "src/runner/job_codec.h"
#include "src/runner/supervisor.h"

namespace memtis {

int RunWorker(WorkQueue& queue, const WorkerOptions& options) {
  int completed = 0;
  bool first_claim = true;
  bool checkpoint_dir_made = false;
  const uint64_t renew_ms =
      std::clamp<uint64_t>(options.renew_interval_ms, 1, INT_MAX);
  for (;;) {
    if (options.drain != nullptr && options.drain()) {
      return 3;
    }
    WorkItem item;
    switch (queue.Claim(&item)) {
      case WorkQueue::ClaimStatus::kDone:
        return 0;
      case WorkQueue::ClaimStatus::kLost:
        return 1;
      case WorkQueue::ClaimStatus::kClaimed:
        break;
    }

    if (options.kill_after_cells >= 0 &&
        completed >= options.kill_after_cells) {
      // Die while holding the lease — the interesting moment for the
      // coordinator's re-issue path.
      if (options.kill_hard) {
        _exit(9);
      }
      return 2;
    }
    if (first_claim && options.hang_first_claim_ms > 0) {
      first_claim = false;
      SleepMs(options.hang_first_claim_ms);  // no renewals: lease expires
    }

    SupervisedOutcome outcome;
    if (JobFingerprint(item.spec) != item.fingerprint) {
      outcome.ok = false;
      outcome.attempts = item.attempt + 1;
      outcome.failure.kind = FailureKind::kInvalidSpec;
      outcome.failure.message =
          "cell spec does not hash to advertised fingerprint " +
          item.fingerprint + " (codec drift between coordinator and worker?)";
      outcome.failure.reproducer_cmdline =
          ReproducerCmdline(item.spec, item.attempt);
    } else {
      SupervisorOptions sup;
      sup.job_timeout_ms =
          item.job_timeout_ms != 0 ? item.job_timeout_ms : options.job_timeout_ms;
      if (item.checkpoint_ns != 0 && !options.checkpoint_dir.empty()) {
        sup.checkpoint_ns = item.checkpoint_ns;
        sup.checkpoint_dir = options.checkpoint_dir;
        if (!checkpoint_dir_made) {
          checkpoint_dir_made = true;
          mkdir(options.checkpoint_dir.c_str(), 0777);  // EEXIST is fine
        }
      }
      // Heartbeat between polls of the child. A failed renewal is ignored:
      // a revoked lease just makes our eventual result stale, and stale
      // results are harmless by construction.
      SupervisedAttempt attempt(item.spec, item.attempt, sup);
      uint64_t next_renew = MonotonicMs() + renew_ms;
      for (;;) {
        const uint64_t now = MonotonicMs();
        if (now >= next_renew) {
          queue.Renew(item);
          next_renew = now + renew_ms;
        }
        if (attempt.Wait(static_cast<int>(next_renew - now))) {
          break;
        }
      }
      outcome = attempt.outcome();
    }

    if (!queue.Complete(item, outcome)) {
      return 0;  // campaign decided while we ran — our result was moot
    }
    ++completed;
  }
}

}  // namespace memtis
