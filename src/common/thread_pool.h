// Fixed-size worker thread pool.
//
// The Logical Simulation's worker "cluster" (paper §IV-A) is this pool:
// simulated devices train on it, fleet shards advance on it in lockstep,
// and the FedAvg flush lanes accumulate on it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace simdc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// If chunks throw, every chunk still runs to its end, and then the
  /// first exception (in chunk order) is rethrown.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

/// The engine's one fork-join: runs fn(i) for i in [0, n) on `pool`, or
/// in ascending order on the calling thread when `pool` is null or n <= 1,
/// so a caller without a pool runs the same code as one with. On the
/// inline path the first exception propagates at once, because no other
/// index is running; on the pool, ThreadPool::ParallelFor's rule holds.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace simdc
