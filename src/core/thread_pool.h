// A fixed-size worker pool plus a deterministic parallel-for helper.
//
// The pool is deliberately minimal: tasks are plain std::function<void()>
// jobs consumed from one queue.  All ordering guarantees the FL engine needs
// (bit-identical results vs. serial execution) come from *callers* drawing
// randomness and merging results serially; the pool only provides raw
// concurrency for work that is independent per item.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace mhbench::core {

class ThreadPool {
 public:
  // Spawns `num_workers` worker threads (0 is allowed; the pool is then a
  // no-op and ParallelFor degrades to the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task.  Must not be called after destruction has begun.
  void Submit(std::function<void()> task) MHB_EXCLUDES(mu_);

  // Lifetime utilization counters, maintained by the workers themselves.
  // Cheap enough to keep always-on (two clock reads per dequeue, against
  // tasks that are typically milliseconds of training); the engine
  // snapshots deltas per round into the observability registry.
  struct Stats {
    std::uint64_t tasks_executed = 0;
    std::uint64_t idle_ns = 0;  // summed worker time spent waiting for work
  };
  Stats stats() const;

 private:
  void WorkerLoop();

  Mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_ MHB_GUARDED_BY(mu_);
  bool stop_ MHB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> idle_ns_{0};
};

// True on every pool worker and on any thread inside a ParallelFor call
// (its caller included, for the whole call).  A ParallelFor or threaded
// GEMM issued from such a thread runs inline: fanning out again could wait
// on a worker that is itself waiting on this thread, e.g. for a lock the
// calling item holds (nested-parallelism deadlock guard).
bool InParallelRegion();

// An opaque per-thread pointer that ParallelFor hands from its caller to
// every helper task (set around the task, restored after it), so each
// item sees its caller's context on whichever thread runs it.  Core never
// reads through it; obs keeps the run's collectors there (obs/obs_config.h).
// Null on a thread nothing has set it on.
const void* ThreadContext();
// Sets the calling thread's context and returns the one it replaces.
const void* ExchangeThreadContext(const void* context);

// Runs fn(i) for every i in [0, n).  Iterations execute on the pool's
// workers *and* the calling thread, each under the caller's ThreadContext;
// the call returns once all iterations have finished.  Runs serially
// inline when `pool` is null, has no workers, n <= 1, or InParallelRegion()
// holds (nested-parallelism guard).
//
// Exception safety: the first exception thrown by any iteration is captured,
// remaining unstarted iterations are abandoned, and the exception is
// rethrown on the calling thread after in-flight iterations drain.
//
// fn must be safe to invoke concurrently for distinct i; no two invocations
// receive the same i.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace mhbench::core
