// Test harness for socket campaigns: the coordinator serves on the calling
// thread while each worker runs RunWorker in its own process.
//
// Every worker process is forked before the listener exists and before any
// thread starts, so no fork races another thread. That matters because a
// child forked from a multi-threaded process can block forever on an
// allocator lock held by a thread that does not exist in the child, and the
// sanitizer runtimes' allocators do not guard fork. Each worker forks its own
// cells' children from a single-threaded process too, as memtis_run does.

#ifndef MEMTIS_SIM_TESTS_SOCKET_CAMPAIGN_H_
#define MEMTIS_SIM_TESTS_SOCKET_CAMPAIGN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/common/netio.h"
#include "src/runner/coordinator.h"
#include "src/runner/worker.h"

namespace memtis {

struct SocketCampaignRun {
  std::vector<CellOutcome> outcomes;
  CampaignStats stats;
  std::string error;
  std::vector<int> worker_exits;  // RunWorker's return value per worker
};

// Serves a socket campaign (with `preloaded` manifest entries) and runs each
// WorkerOptions entry as a worker process against it. Workers learn the
// port through a pipe once it is bound: all at once or, with
// `sequential_workers`, one after another, each handing the port on when it
// exits (sequential chaos schedules). `on_listening` runs first, on this
// thread. A worker whose queue is destroyed closes its connection, so a
// soft-killed worker's held lease surfaces to the coordinator as EOF.
inline SocketCampaignRun RunSocketCampaign(
    const std::vector<JobSpec>& jobs, const CampaignOptions& options,
    const std::vector<WorkerOptions>& workers, bool sequential_workers = false,
    const std::map<std::string, ManifestEntry>& preloaded = {},
    const std::function<void(uint16_t)>& on_listening = nullptr) {
  constexpr int kNoPort = 100;
  constexpr int kConnectFailed = 101;
  const size_t n = workers.size();
  std::vector<std::array<int, 2>> go(n);
  for (std::array<int, 2>& fds : go) {
    EXPECT_EQ(pipe(fds.data()), 0);
  }
  std::vector<pid_t> pids;
  for (size_t i = 0; i < n; ++i) {
    const pid_t pid = fork();
    if (pid != 0) {
      pids.push_back(pid);
      continue;
    }
    const bool hand_on = sequential_workers && i + 1 < n;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) {
        close(go[j][0]);
      }
      if (!(hand_on && j == i + 1)) {
        close(go[j][1]);
      }
    }
    NetAddress addr;
    if (read(go[i][0], &addr.port, sizeof(addr.port)) != sizeof(addr.port)) {
      _exit(kNoPort);
    }
    int rc = kConnectFailed;
    {
      std::string error;
      auto queue = MakeSocketWorkQueue(addr, workers[i].name, 5'000, &error);
      if (queue != nullptr) {
        rc = RunWorker(*queue, workers[i]);
      }
    }
    if (hand_on) {
      (void)!write(go[i + 1][1], &addr.port, sizeof(addr.port));
    }
    _exit(rc);  // skip the test runner's atexit work: this is a forked copy
  }
  for (const std::array<int, 2>& fds : go) {
    close(fds[0]);
  }

  SocketCampaignRun run;
  run.outcomes = ServeSocketCampaign(
      jobs, options, NetAddress{},
      [&](uint16_t bound) {
        if (on_listening != nullptr) {
          on_listening(bound);
        }
        const size_t first_wave =
            sequential_workers ? std::min<size_t>(n, 1) : n;
        for (size_t i = 0; i < first_wave; ++i) {
          (void)!write(go[i][1], &bound, sizeof(bound));
        }
      },
      preloaded, nullptr, &run.stats, &run.error);
  for (const std::array<int, 2>& fds : go) {
    close(fds[1]);  // a worker still waiting for the port gives up
  }
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_NE(rc, kNoPort) << "a worker never got the coordinator's port";
    EXPECT_NE(rc, kConnectFailed) << "a worker could not connect";
    run.worker_exits.push_back(rc);
  }
  return run;
}

}  // namespace memtis

#endif  // MEMTIS_SIM_TESTS_SOCKET_CAMPAIGN_H_
