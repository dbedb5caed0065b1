#include "src/runner/worker.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/common/netio.h"
#include "src/runner/job_codec.h"
#include "src/runner/supervisor.h"

namespace memtis {
namespace {

// Cells at or below this access budget are "very small": their runtime is
// comparable to a result round-trip, so their results are batched. Larger
// cells flush immediately — the transport cost vanishes in their runtime,
// and prompt reporting keeps the coordinator's retry decisions timely.
constexpr uint64_t kBatchableAccesses = 1'000'000;

// Heartbeats the lease the worker currently holds, if any. Renewal failures
// are deliberately ignored: a revoked lease just means our eventual result
// will be stale, and stale results are harmless by construction.
//
// One thread for the worker's whole life, started before its first cell:
// every cell runs in a forked child, and a thread still starting up when the
// process forks can hold allocator locks the child then waits on forever
// (the sanitizer runtimes' allocators do not guard fork).
class LeaseRenewer {
 public:
  LeaseRenewer(WorkQueue& queue, uint64_t interval_ms)
      : thread_([&queue, interval_ms, this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            SleepMs(50);
            // Renew under the lock, so Release() cannot return while a
            // renewal still reads the item.
            std::lock_guard<std::mutex> lock(mu_);
            if (held_ != nullptr && (since_renew_ += 50) >= interval_ms) {
              since_renew_ = 0;
              queue.Renew(*held_);
            }
          }
        }) {}

  ~LeaseRenewer() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  LeaseRenewer(const LeaseRenewer&) = delete;
  LeaseRenewer& operator=(const LeaseRenewer&) = delete;

  // Heartbeats `item`, which must outlive the matching Release().
  void Hold(const WorkItem& item) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = &item;
    since_renew_ = 0;
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = nullptr;
  }

 private:
  std::mutex mu_;
  const WorkItem* held_ = nullptr;  // guarded by mu_
  uint64_t since_renew_ = 0;        // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int RunWorker(WorkQueue& queue, const WorkerOptions& options) {
  LeaseRenewer renewer(queue, options.renew_interval_ms);
  int completed = 0;
  bool first_claim = true;
  bool checkpoint_dir_made = false;
  std::vector<std::pair<WorkItem, SupervisedOutcome>> pending;
  // Flushes batched results. False = the campaign is gone, results are moot.
  const auto flush = [&] {
    if (pending.empty()) {
      return true;
    }
    std::vector<std::pair<WorkItem, SupervisedOutcome>> batch;
    batch.swap(pending);
    return queue.CompleteBatch(batch);
  };
  for (;;) {
    if (options.drain != nullptr && options.drain()) {
      flush();
      return 3;
    }
    WorkItem item;
    switch (queue.Claim(&item)) {
      case WorkQueue::ClaimStatus::kDone:
        flush();  // harmlessly fails if the coordinator is already gone
        return 0;
      case WorkQueue::ClaimStatus::kLost:
        flush();
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
      sup.max_attempts = 1;  // retries are the coordinator's, at global scope
      sup.first_attempt = item.attempt;
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
      renewer.Hold(item);
      outcome = RunJobSupervised(item.spec, sup);
      renewer.Release();
    }

    // Very small cells batch their results; everything else — and a batch
    // that just reached capacity — flushes now. The merge is byte-identical
    // either way: the coordinator keys on (fingerprint, attempt), not on
    // arrival pattern.
    const bool batchable =
        options.result_batch > 1 && item.spec.accesses != 0 &&
        item.spec.accesses <= kBatchableAccesses;
    bool delivered = true;
    if (batchable) {
      pending.emplace_back(std::move(item), std::move(outcome));
      if (pending.size() >= static_cast<size_t>(options.result_batch)) {
        delivered = flush();
      }
    } else {
      delivered = flush() && queue.Complete(item, outcome);
    }
    if (!delivered) {
      return 0;  // campaign decided while we ran — our result was moot
    }
    ++completed;
  }
}

}  // namespace memtis
