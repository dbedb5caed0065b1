// Worker side of distributed campaign execution: `memtis_run --worker=ADDR`.
//
// RunWorker pulls cells from a WorkQueue, runs each under the supervisor as
// exactly one attempt at the cell's global attempt number, heartbeats the
// lease from the same loop that polls the child, and streams the
// fingerprint-keyed outcome back. The worker is single-threaded, so it forks
// with no other thread running. It holds no campaign state: killing it at
// any point only costs the leases it held, which the coordinator re-issues
// deterministically.

#ifndef MEMTIS_SIM_SRC_RUNNER_WORKER_H_
#define MEMTIS_SIM_SRC_RUNNER_WORKER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/runner/work_queue.h"

namespace memtis {

struct WorkerOptions {
  std::string name = "worker";
  uint64_t job_timeout_ms = 0;     // fallback when the cell carries none
  uint64_t renew_interval_ms = 1'000;

  // Where cells that carry a checkpoint_ns write their snapshots (created on
  // first use). Workers sharing this directory (on shared storage, across
  // hosts) resume each other's re-issued leases from the newest valid
  // snapshot. Must be non-empty when the campaign checkpoints: the fallback
  // of silently running such cells unsnapshotted would still produce the
  // right bytes, but would lose the resume guarantee without saying so.
  std::string checkpoint_dir;

  // Graceful drain (SIGINT/SIGTERM): polled between cells. Once true the
  // worker finishes and reports the in-flight cell, and returns 3 instead of
  // claiming further work.
  std::function<bool()> drain;

  // Chaos hooks (tests / MEMTIS_KILL_WORKER): exit after completing this many
  // cells while holding the next claimed lease. kill_hard uses _exit so no
  // result, renewal, or FIN ever reaches the coordinator.
  int kill_after_cells = -1;       // < 0 = never
  bool kill_hard = false;

  // Chaos hook: sit on the first claimed lease without renewing for this long
  // before running it — long enough and the lease expires under us, making
  // our eventual result stale.
  uint64_t hang_first_claim_ms = 0;
};

// Runs until the queue reports done (0), refused (1), a chaos hook fired
// a soft kill (2), or a requested drain completed (3). A cell whose spec
// does not hash to the advertised fingerprint is reported as kInvalidSpec
// rather than run.
int RunWorker(WorkQueue& queue, const WorkerOptions& options);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_WORKER_H_
