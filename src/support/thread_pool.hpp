// Fixed-size thread pool used to parallelise per-service MRF subproblems and
// Monte-Carlo batches.  This substitutes (see DESIGN.md) for the GPU/CUDA
// acceleration the paper mentions: the parallel structure is the same —
// independent subproblems dispatched concurrently — realised on CPU cores.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "support/annotations.hpp"
#include "support/error.hpp"
#include "support/mutex.hpp"

namespace icsdiv::support {

class ThreadPool {
 public:
  /// Creates `thread_count` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t thread_count = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `task`; the returned future reports its result or exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      const MutexLock lock(mutex_);
      require(!stopping_, "ThreadPool::submit", "pool is shutting down");
      queue_.emplace_back([packaged]() { (*packaged)(); });
    }
    wakeup_.notify_one();
    return future;
  }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool contains_current_thread() const noexcept;

  /// Runs `body(i)` for i in [0, count) across the pool and waits for all.
  /// Exceptions from any iteration are rethrown (first one wins).  Called
  /// from one of the pool's own workers it runs inline instead (blocking a
  /// worker on tasks queued behind itself would deadlock).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Lets the queue drain, then joins every started worker.
  void stop_and_join();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wakeup_;
  std::deque<std::function<void()>> queue_ ICSDIV_GUARDED_BY(mutex_);
  bool stopping_ ICSDIV_GUARDED_BY(mutex_) = false;
};

/// Lazily-constructed process-wide pool for library internals that want
/// parallelism without plumbing a pool through every call site.  Sized from
/// the ICSDIV_THREADS environment variable when set.
ThreadPool& global_thread_pool();

}  // namespace icsdiv::support
