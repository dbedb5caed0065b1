#include "src/runner/thread_pool.h"

#include <cstdlib>

#include "src/common/check.h"

namespace memtis {

int ThreadPool::DefaultThreadCount() {
  const char* env = std::getenv("MEMTIS_RUNNER_THREADS");
  if (env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    return n < 1 ? 1 : n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads > 0 ? threads : DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  SIM_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    SIM_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return !queue_.empty() || shutting_down_; });
      if (queue_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace memtis
