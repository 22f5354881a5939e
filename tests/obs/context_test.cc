// How instrumented code reaches the run's collectors: one ObsScope on the
// calling thread reaches every core::ParallelFor task, callers sharing a
// pool keep their collectors apart, and a thread with nothing installed
// records nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "core/thread_pool.h"
#include "obs/obs_config.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace mhbench::obs {
namespace {

// Whether the calling thread sees any collector.
bool Installed() {
  const ObsConfig& obs = CurrentObs();
  return obs.tracer != nullptr || obs.profiler != nullptr;
}

ObsConfig Collectors(Tracer& tracer, Profiler& profiler) {
  ObsConfig obs;
  obs.tracer = &tracer;
  obs.profiler = &profiler;
  return obs;
}

TEST(ObsContextTest, OneInstallReachesEveryParallelForHelper) {
  Tracer tracer;
  Profiler profiler;
  const ObsConfig obs = Collectors(tracer, profiler);
  ObsScope scope(&obs);

  // Each item waits until every item has started, so the caller cannot
  // run them all: the three helpers each take one.
  constexpr int kItems = 4;
  core::ThreadPool pool(kItems - 1);
  std::atomic<int> started{0};
  std::atomic<int> saw_context{0};
  core::ParallelFor(&pool, kItems, [&](std::size_t) {
    Span span("item", "test");
    ProfileScope profile_scope("item");
    if (&CurrentObs() == &obs) ++saw_context;
    ++started;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kItems &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
  });
  ASSERT_EQ(started.load(), kItems);
  EXPECT_EQ(saw_context.load(), kItems);

  std::set<int> lanes;
  for (const TraceEvent& e : tracer.Snapshot()) {
    EXPECT_EQ(e.name, "item");
    lanes.insert(e.tid);
  }
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(kItems));
  const auto totals = profiler.TotalsByName();
  ASSERT_EQ(totals.count("item"), 1u);
  EXPECT_EQ(totals.at("item").count, kItems);
}

TEST(ObsContextTest, CallersSharingAPoolKeepTheirCollectorsApart) {
  core::ThreadPool pool(2);
  constexpr int kCalls = 20;
  constexpr int kItems = 16;
  struct Caller {
    const char* name = nullptr;
    Tracer tracer;
    Profiler profiler;
  };
  Caller a;
  a.name = "a";
  Caller b;
  b.name = "b";
  auto run = [&pool](Caller* caller) {
    const ObsConfig obs = Collectors(caller->tracer, caller->profiler);
    ObsScope scope(&obs);
    for (int call = 0; call < kCalls; ++call) {
      core::ParallelFor(&pool, kItems, [caller](std::size_t) {
        Span span(caller->name, "test");
        ProfileScope profile_scope(caller->name);
      });
    }
  };
  std::thread ta(run, &a);
  std::thread tb(run, &b);
  ta.join();
  tb.join();

  for (Caller* caller : {&a, &b}) {
    SCOPED_TRACE(caller->name);
    const auto events = caller->tracer.Snapshot();
    EXPECT_EQ(events.size(), static_cast<std::size_t>(kCalls * kItems));
    for (const TraceEvent& e : events) EXPECT_EQ(e.name, caller->name);
    const auto totals = caller->profiler.TotalsByName();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals.begin()->first, caller->name);
    EXPECT_EQ(totals.begin()->second.count, kCalls * kItems);
  }
}

TEST(ObsContextTest, AThreadWithNoContextRecordsNothing) {
  Tracer tracer;
  Profiler profiler;
  const ObsConfig obs = Collectors(tracer, profiler);
  core::ThreadPool pool(2);
  {
    // The pool's workers run tasks under this context first; they must
    // drop it when each task ends.
    ObsScope scope(&obs);
    core::ParallelFor(&pool, 8, [](std::size_t) { Span span("seen", "t"); });
  }
  EXPECT_FALSE(Installed());

  auto record = [] {
    Span span("unseen", "t");
    EXPECT_FALSE(static_cast<bool>(span));
    ProfileScope profile_scope("unseen");
  };
  core::ParallelFor(&pool, 8, [&record](std::size_t) { record(); });
  std::thread bare([&record] {
    EXPECT_FALSE(Installed());
    record();
  });
  bare.join();

  for (const TraceEvent& e : tracer.Snapshot()) EXPECT_EQ(e.name, "seen");
  EXPECT_EQ(tracer.Snapshot().size(), 8u);
  EXPECT_TRUE(profiler.TotalsByName().empty());
}

TEST(ObsContextTest, NestedScopesRestoreTheOuterContext) {
  Tracer outer_tracer;
  Tracer inner_tracer;
  ObsConfig outer;
  outer.tracer = &outer_tracer;
  ObsConfig inner;
  inner.tracer = &inner_tracer;
  {
    ObsScope outer_scope(&outer);
    {
      ObsScope inner_scope(&inner);
      Span span("inner", "t");
    }
    Span span("outer", "t");
    {
      ObsScope none(nullptr);
      EXPECT_FALSE(Installed());
    }
  }
  EXPECT_FALSE(Installed());
  ASSERT_EQ(outer_tracer.Snapshot().size(), 1u);
  EXPECT_EQ(outer_tracer.Snapshot()[0].name, "outer");
  ASSERT_EQ(inner_tracer.Snapshot().size(), 1u);
  EXPECT_EQ(inner_tracer.Snapshot()[0].name, "inner");
}

}  // namespace
}  // namespace mhbench::obs
