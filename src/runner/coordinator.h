// The Campaign state machine — the one cell scheduler — and the two loops
// that run it: RunJobsResilient, which runs a local supervised sweep, and
// ServeSocketCampaign, the serve loop behind `memtis_run --serve`.
//
// The lease/claim contract (see DESIGN.md "Distributed campaigns"):
//
//  - Every cell walks kPending -> kIssued -> kDone. An issue is exactly one
//    supervised attempt at a specific global attempt number; the (attempt,
//    issue) tuple names the lease, and `issue` increases monotonically per
//    cell so a revoked lease can never be confused with its replacement.
//  - A reported recoverable failure re-issues the cell at attempt + 1 once
//    its deterministic backoff has elapsed. The engine seed folds with the
//    attempt, so the result bytes, global attempt count, and reproducer
//    are identical no matter which worker — or which local child — runs
//    the retry. Retries and backoff live here and nowhere else.
//  - A lost lease (connection EOF, expired heartbeat) re-issues the *same*
//    attempt under a fresh issue id; the lost attempt left no evidence, so
//    the rerun reproduces the uninterrupted run's bytes. After max_reissues
//    consecutive losses the cell is decided kLeaseExpired with a reproducer.
//  - Results are accepted iff the cell is undecided and the reported attempt
//    matches the cell's current attempt — duplicate and stale results (two
//    workers racing the same attempt after an expiry) are ignored, which is
//    sound because equal (spec, attempt) means equal bytes.
//  - Decided cells append to the --resume manifest, and a restarted
//    campaign reloads the ok ones instead of issuing them, so coordinator
//    death is recoverable: rerun the same command on the same manifest,
//    with freshly started workers (a worker exits when its coordinator's
//    connection closes).
//  - Cancellation (cancelled(), or the first failure without keep_going)
//    stops fresh cells from being issued; cells already started drain,
//    retries included, and the rest are reported kCancelled with a
//    reproducer.
//
// Campaign is single-threaded on purpose: each of those loops is a poll loop
// that owns it exclusively.

#ifndef MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_
#define MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/manifest.h"
#include "src/runner/work_queue.h"

namespace memtis {

struct CampaignOptions {
  int max_attempts = 1;            // total attempts per cell (retries + 1)
  // Deterministic exponential backoff before attempt k > 0:
  // min(backoff_base_ms << (k - 1), 10'000) ms after attempt k - 1 failed.
  uint64_t backoff_base_ms = 100;
  uint64_t job_timeout_ms = 0;     // watchdog per attempt (0 = none)
  // Mid-cell snapshots every checkpoint_ns of virtual time (0 = off), so a
  // SIGKILL-class death or a re-issued lease at the same attempt resumes
  // from the newest snapshot instead of restarting (SupervisorOptions).
  // Forwarded per issued cell; local sweeps snapshot into checkpoint_dir,
  // workers into their own --checkpoint-dir.
  uint64_t checkpoint_ns = 0;
  std::string checkpoint_dir;
  bool keep_going = false;         // false: first failure stops new issues
  std::string manifest_path;       // "" = no checkpointing
  std::function<bool()> cancelled;  // polled; true stops new issues (SIGINT)
  // Socket campaigns only: lease losses tolerated per cell, and how long a
  // lease lives without a heartbeat.
  int max_reissues = 8;
  uint64_t lease_timeout_ms = 10'000;
};

struct CampaignStats {
  uint64_t issues = 0;            // leases handed out (incl. retries/reissues)
  uint64_t leases_lost = 0;       // connection EOF / expired heartbeat
  uint64_t retries = 0;           // failure-driven re-issues at attempt + 1
  uint64_t stale_results = 0;     // results ignored (decided cell or old attempt)
};

class Campaign {
 public:
  Campaign(const std::vector<JobSpec>& jobs, const CampaignOptions& options,
           const std::map<std::string, ManifestEntry>& preloaded,
           const ProgressFn& progress, std::string* manifest_error);

  // Hands out the lowest-index issuable cell and arms its lease deadline.
  // nullopt when nothing is currently issuable.
  std::optional<WorkItem> NextIssue(uint64_t now_ms);

  // Heartbeat for an issued lease; false = revoked/stale.
  bool Renew(size_t index, int attempt, uint64_t issue, uint64_t now_ms);

  // The outcome of (index, attempt), reported at now_ms. False when stale
  // and ignored.
  bool OnOutcome(size_t index, int attempt, const SupervisedOutcome& outcome,
                 uint64_t now_ms);

  // The lease carrying `issue` is gone. Re-opens the cell under a fresh
  // issue id (same attempt), or decides kLeaseExpired past max_reissues.
  // A no-op unless that lease is the cell's live one.
  void OnLeaseLost(size_t index, uint64_t issue);

  // Expires leases whose deadline passed (serve-loop tick).
  void ExpireStale(uint64_t now_ms);

  // True once every cell is decided — or the campaign is cancelled and no
  // lease remains in flight (retry-pending cells still count as in flight:
  // like a local drain, a started cell finishes its retry budget).
  bool Finished();

  // Closes the manifest and fills kCancelled records for never-ran cells.
  // Call exactly once, after Finished().
  std::vector<CellOutcome> Finish();

  const CampaignStats& stats() const { return stats_; }

 private:
  enum class CellPhase { kPending, kIssued, kDone };

  struct CellState {
    CellPhase phase = CellPhase::kPending;
    int attempt = 0;       // next (kPending) or running (kIssued) global attempt
    int reissues = 0;      // lease losses so far
    uint64_t issue = 0;    // current/open issue id, strictly increasing
    uint64_t deadline_ms = 0;  // lease deadline while kIssued
    uint64_t not_before_ms = 0;  // backoff: not issuable before this time
  };

  void CheckCancelled();
  bool Issuable(const CellState& st, uint64_t now_ms) const;
  void Decide(size_t index, bool ok, int attempts, JobResult result,
              JobFailure failure);
  void Report(size_t index);

  const std::vector<JobSpec>& jobs_;
  CampaignOptions options_;
  ProgressFn progress_;
  std::vector<std::string> fingerprints_;
  std::vector<CellState> states_;
  std::vector<CellOutcome> outcomes_;
  ManifestWriter writer_;
  CampaignStats stats_;
  size_t decided_ = 0;
  size_t issued_count_ = 0;
  size_t progress_done_ = 0;
  bool cancel_latched_ = false;
};

// Runs a local supervised sweep: jobs[i] -> outcomes[i], driving up to
// `concurrency` SupervisedAttempts from this one thread. `preloaded` is the
// manifest image loaded by the caller (empty map for a fresh run);
// `manifest_error` receives a description when the manifest cannot be opened
// for appending (the sweep still runs — checkpointing is best-effort, losing
// it is reported loudly). Supervised success results are byte-identical to
// in-process runs and to manifest reloads, so the aggregate over any
// interrupt/resume schedule equals the uninterrupted run's bytes.
std::vector<CellOutcome> RunJobsResilient(
    const std::vector<JobSpec>& jobs, const CampaignOptions& options,
    int concurrency, const std::map<std::string, ManifestEntry>& preloaded = {},
    const ProgressFn& progress = nullptr, std::string* manifest_error = nullptr);

// Runs a campaign to completion, serving workers on `listen` (port 0 =
// kernel-assigned). `on_listening` fires with the bound port once the socket
// accepts — tests launch workers from it, memtis_run writes --port-file.
// On a transport failure returns an empty vector with *error set.
std::vector<CellOutcome> ServeSocketCampaign(
    const std::vector<JobSpec>& jobs, const CampaignOptions& options,
    const NetAddress& listen, const std::function<void(uint16_t)>& on_listening,
    const std::map<std::string, ManifestEntry>& preloaded = {},
    const ProgressFn& progress = nullptr, CampaignStats* stats = nullptr,
    std::string* error = nullptr, std::string* manifest_error = nullptr);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_COORDINATOR_H_
