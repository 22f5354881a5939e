#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "obs/profile.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace mhbench::obs {
namespace {

// The context that routes this thread's scopes into `profiler`.
ObsConfig ProfilingTo(Profiler& profiler) {
  ObsConfig obs;
  obs.profiler = &profiler;
  return obs;
}

TEST(ProfileScopeTest, InertWithoutAProfilerInTheContext) {
  // Nothing installed: scopes must not record anywhere, even while a
  // profiler object exists.
  Profiler profiler;
  {
    ProfileScope outer("outer");
    ProfileScope inner("inner");
  }
  EXPECT_EQ(CurrentObs().profiler, nullptr);
  EXPECT_TRUE(profiler.TotalsByName().empty());
  EXPECT_TRUE(profiler.MergedTree().children.empty());
}

TEST(ProfilerTest, NestedScopesBuildATree) {
  Profiler profiler;
  {
    const ObsConfig obs = ProfilingTo(profiler);
    ObsScope obs_scope(&obs);
    for (int i = 0; i < 3; ++i) {
      ProfileScope train("train");
      {
        ProfileScope fwd("forward");
      }
      {
        ProfileScope bwd("backward");
      }
    }
    ProfileScope other("other");
  }

  const Profiler::TreeNode root = profiler.MergedTree();
  ASSERT_EQ(root.children.size(), 2u);  // sorted by name
  EXPECT_EQ(root.children[0].name, "other");
  EXPECT_EQ(root.children[1].name, "train");
  const Profiler::TreeNode& train = root.children[1];
  EXPECT_EQ(train.count, 3);
  ASSERT_EQ(train.children.size(), 2u);
  EXPECT_EQ(train.children[0].name, "backward");
  EXPECT_EQ(train.children[0].count, 3);
  EXPECT_EQ(train.children[1].name, "forward");
  // Inclusive time covers the children; self time is never negative.
  EXPECT_GE(train.wall_ns, train.child_wall_ns);
  EXPECT_GE(train.child_wall_ns,
            train.children[0].wall_ns + train.children[1].wall_ns);
}

TEST(ProfilerTest, TotalsByNameFoldTreePositions) {
  Profiler profiler;
  {
    const ObsConfig obs = ProfilingTo(profiler);
    ObsScope obs_scope(&obs);
    {
      ProfileScope a("phase_a");
      ProfileScope shared("shared");
    }
    {
      ProfileScope b("phase_b");
      ProfileScope shared("shared");
    }
  }
  const std::map<std::string, Profiler::OpStats> totals =
      profiler.TotalsByName();
  ASSERT_EQ(totals.count("shared"), 1u);
  // "shared" appears under two parents; the flat view folds both.
  EXPECT_EQ(totals.at("shared").count, 2);
  EXPECT_EQ(totals.at("phase_a").count, 1);
}

TEST(ProfilerTest, AttributesGemmFlopsToTheEnclosingScope) {
  Profiler profiler;
  const Tensor a(Shape{8, 8}, 1.0f);
  const Tensor b(Shape{8, 8}, 2.0f);
  {
    const ObsConfig obs = ProfilingTo(profiler);
    ObsScope obs_scope(&obs);
    ProfileScope scope("matmul");
    (void)ops::Matmul(a, b);
  }
  const auto totals = profiler.TotalsByName();
  ASSERT_EQ(totals.count("matmul"), 1u);
  EXPECT_EQ(totals.at("matmul").gemm_flops, 2ll * 8 * 8 * 8);
}

TEST(ProfilerTest, MergesPerThreadSinksByName) {
  Profiler profiler;
  const ObsConfig obs = ProfilingTo(profiler);
  ObsScope obs_scope(&obs);
  core::ThreadPool pool(4);
  core::ParallelFor(&pool, 16, [](std::size_t) {
    ProfileScope work("work");
    ProfileScope step("step");
  });
  const auto totals = profiler.TotalsByName();
  ASSERT_EQ(totals.count("work"), 1u);
  EXPECT_EQ(totals.at("work").count, 16);
  EXPECT_EQ(totals.at("step").count, 16);
  const Profiler::TreeNode root = profiler.MergedTree();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].count, 16);
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "step");
}

TEST(ProfilerTest, InternedNamesMergeWithLiterals) {
  Profiler profiler;
  const std::string dynamic = std::string("blo") + "ck0";
  const char* interned = InternName(dynamic);
  EXPECT_EQ(interned, InternName("block0"));  // stable pointer
  EXPECT_STREQ(interned, "block0");
  {
    const ObsConfig obs = ProfilingTo(profiler);
    ObsScope obs_scope(&obs);
    {
      ProfileScope s(interned);
    }
    {
      ProfileScope s("block0");
    }
  }
  const auto totals = profiler.TotalsByName();
  ASSERT_EQ(totals.count("block0"), 1u);
  EXPECT_EQ(totals.at("block0").count, 2);
}

TEST(ProfilerTest, JsonHasOpTotalsAndTreeRows) {
  Profiler profiler;
  {
    const ObsConfig obs = ProfilingTo(profiler);
    ObsScope obs_scope(&obs);
    ProfileScope outer("outer");
    ProfileScope inner("inner");
  }
  const std::string json = profiler.ToJson();
  EXPECT_NE(json.find("\"op_totals\""), std::string::npos);
  EXPECT_NE(json.find("\"tree\""), std::string::npos);
  EXPECT_NE(json.find("\"outer/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"self_wall_us\""), std::string::npos);
}

}  // namespace
}  // namespace mhbench::obs
