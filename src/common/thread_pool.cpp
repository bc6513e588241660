#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace simdc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopped_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunk so we enqueue at most one job per worker.
  const std::size_t chunks = std::min(n, workers_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    futures.push_back(Submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  // Wait for every chunk before rethrowing: a chunk still running `fn`
  // must not outlive the caller's frame, which an early throw unwinds.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace simdc
