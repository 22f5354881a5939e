#include "core/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/mutex.h"

#include <gtest/gtest.h>

namespace mhbench::core {
namespace {

TEST(ThreadPoolTest, EmptyRangeCallsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleItemRunsInline) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelFor(&pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, NullPoolRunsSerially) {
  std::vector<int> counts(16, 0);
  ParallelFor(nullptr, counts.size(),
              [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(&pool, kN, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, MoreThreadsThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  ParallelFor(&pool, 3, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> calls{0};
    ParallelFor(&pool, 17, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 17);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [&](std::size_t i) {
                    if (i == 5) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must survive an aborted call.
  std::atomic<int> calls{0};
  ParallelFor(&pool, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, ExceptionAbandonsRemainingWork) {
  ThreadPool pool(2);
  std::atomic<int> started{0};
  try {
    ParallelFor(&pool, 100000, [&](std::size_t) {
      ++started;
      throw std::runtime_error("first failure stops the range");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error&) {
  }
  // Far fewer iterations ran than the range holds (in-flight ones drain).
  EXPECT_LT(started.load(), 1000);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  // Inner calls from worker threads must run inline instead of submitting
  // to the queue they drain themselves (the deadlock guard).
  ParallelFor(&pool, 4, [&](std::size_t) {
    ParallelFor(&pool, 4, [&](std::size_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls.load(), 16);
}

// The calling thread of an outer ParallelFor holds a lock its one worker
// is blocked on, then fans out again.  Were the caller not marked as inside
// a parallel region, the inner helper task would queue behind the blocked
// worker and the caller would wait for it forever (ctest's TIMEOUT on
// core_test turns that hang into a failure).
TEST(ThreadPoolTest, NestedParallelForOnCallerHoldingLockRunsInline) {
  ThreadPool pool(1);
  Mutex mu;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> caller_locked{false};
  std::atomic<int> inner_calls{0};
  EXPECT_FALSE(InParallelRegion());
  ParallelFor(&pool, 2, [&](std::size_t) {
    EXPECT_TRUE(InParallelRegion());
    // Both items start before either locks, so one runs on the caller and
    // one on the worker.
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    const bool on_caller = std::this_thread::get_id() == caller;
    if (!on_caller) {
      while (!caller_locked.load()) std::this_thread::yield();
    }
    MutexLock lock(mu);
    if (on_caller) caller_locked.store(true);
    ParallelFor(&pool, 4, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 8);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ThreadPoolTest, ZeroWorkerPoolDegradesToCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int> counts(5, 0);
  ParallelFor(&pool, counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

}  // namespace
}  // namespace mhbench::core
