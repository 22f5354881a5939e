#include "core/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

#include "core/error.h"

namespace mhbench::core {

namespace {
// Workers set it for their lifetime; ParallelFor sets it on its caller for
// the duration of the call.
thread_local bool tl_in_parallel = false;
}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  MHB_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    MHB_CHECK(!stop_) << "Submit after shutdown";
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

bool InParallelRegion() { return tl_in_parallel; }

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.idle_ns = idle_ns_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::WorkerLoop() {
  tl_in_parallel = true;
  for (;;) {
    std::function<void()> task;
    {
      const auto wait_start = std::chrono::steady_clock::now();
      MutexLock lock(mu_);
      // Explicit wait loop, not a predicate lambda: the guarded reads stay
      // inside this annotated function (see core/mutex.h).
      while (!stop_ && queue_.empty()) cv_.wait(lock.native());
      idle_ns_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - wait_start)
                  .count()),
          std::memory_order_relaxed);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();  // tasks are noexcept wrappers built by ParallelFor
  }
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int workers = pool == nullptr ? 0 : pool->num_workers();
  if (workers == 0 || n == 1 || tl_in_parallel) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller runs items too; anything they fan out must stay inline.
  struct RegionMark {
    RegionMark() { tl_in_parallel = true; }
    ~RegionMark() { tl_in_parallel = false; }
  } region_mark;

  // Shared per-call state: an index dispenser plus completion tracking for
  // the helper tasks.  The caller participates, so completion only needs to
  // count helpers.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abandoned{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t helpers_live = 0;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();

  auto drain = [n, &fn, shared]() {
    for (;;) {
      if (shared->abandoned.load(std::memory_order_relaxed)) return;
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mu);
        if (!shared->first_error) {
          shared->first_error = std::current_exception();
        }
        shared->abandoned.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const std::size_t helper_count =
      std::min<std::size_t>(static_cast<std::size_t>(workers), n - 1);
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->helpers_live = helper_count;
  }
  for (std::size_t h = 0; h < helper_count; ++h) {
    pool->Submit([shared, drain] {
      drain();
      std::lock_guard<std::mutex> lock(shared->mu);
      if (--shared->helpers_live == 0) shared->done_cv.notify_all();
    });
  }

  drain();  // the calling thread works too

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->done_cv.wait(lock, [&] { return shared->helpers_live == 0; });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace mhbench::core
