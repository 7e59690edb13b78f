#include "support/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

namespace icsdiv::support {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  try {
    for (std::size_t i = 0; i < thread_count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread that failed to start: joinable workers left in workers_
    // would call std::terminate from their destructors.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  wakeup_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) wakeup_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into its future
  }
}

bool ThreadPool::contains_current_thread() const noexcept {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Nested use: a worker of this pool calling parallel_for would submit
  // shard tasks and then block on their futures while occupying the very
  // worker needed to run them — with every worker nested, a permanent
  // deadlock (e.g. a sharded solver inside DecomposedSolver's component
  // fan-out).  Degrade to inline execution instead; callers are required
  // to produce identical results at any parallelism anyway.
  if (count == 1 || size() == 1 || contains_current_thread()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Chunked dynamic scheduling: workers pull the next index atomically.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t worker_count = std::min(size(), count);
  std::vector<std::future<void>> futures;
  futures.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    futures.push_back(submit([next, count, &body] {
      for (std::size_t i = next->fetch_add(1); i < count; i = next->fetch_add(1)) {
        body(i);
      }
    }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ICSDIV_THREADS")) {
      const long requested = std::strtol(env, nullptr, 10);
      if (requested > 0) return static_cast<std::size_t>(requested);
    }
    return static_cast<std::size_t>(0);
  }());
  return pool;
}

}  // namespace icsdiv::support
