// Bounded fixed-size thread pool for the experiment runner.
//
// Deliberately simple — one mutex-protected FIFO queue, no work stealing:
// sweep jobs are coarse (one full Engine::Run each, milliseconds to minutes),
// so queue contention is negligible and FIFO keeps the submission order as the
// rough execution order. Determinism of sweep output does NOT depend on the
// pool: jobs write results into pre-assigned slots (see sweep.h), so any
// thread count and any completion order produce identical bytes.

#ifndef MEMTIS_SIM_SRC_RUNNER_THREAD_POOL_H_
#define MEMTIS_SIM_SRC_RUNNER_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace memtis {

class ThreadPool {
 public:
  // `threads` <= 0 selects DefaultThreadCount().
  explicit ThreadPool(int threads = 0);

  // Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not themselves call Submit/Wait on this pool
  // (jobs are independent; there is no nested-parallelism story).
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // std::thread::hardware_concurrency(), overridable with the
  // MEMTIS_RUNNER_THREADS environment variable (values < 1 are clamped to 1).
  static int DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  uint64_t in_flight_ = 0;  // queued + currently executing
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_RUNNER_THREAD_POOL_H_
