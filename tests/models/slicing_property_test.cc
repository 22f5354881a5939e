// Property-style sweeps of the sub-model slicing machinery across every
// family and ratio combination (parameterized gtest).
#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fl/aggregator.h"
#include "fl/param_store.h"
#include "models/zoo.h"
#include "tensor/ops.h"

namespace mhbench::models {
namespace {

using Param = std::tuple<std::string, double>;  // (task, ratio)

class SlicingSweep : public ::testing::TestWithParam<Param> {};

std::vector<Param> AllCombos() {
  std::vector<Param> out;
  for (const auto& task : AllTaskNames()) {
    for (double r : {0.25, 0.5, 0.75, 1.0}) {
      out.emplace_back(task, r);
    }
  }
  return out;
}

// NOTE: no commas at the macro's brace level (the preprocessor would split
// them), hence std::get instead of structured bindings here.
INSTANTIATE_TEST_SUITE_P(
    All, SlicingSweep, ::testing::ValuesIn(AllCombos()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// Loading a sub-model from the store and writing it back must be the
// identity on the selected coordinates (dispatch/upload round trip).
TEST_P(SlicingSweep, DispatchUploadRoundTrip) {
  const auto& [task, ratio] = GetParam();
  Rng rng(11);
  const TaskModels tm = MakeTaskModels(task);
  BuildSpec full;
  full.multi_head = true;
  auto global = tm.primary->Build(full, rng);
  fl::ParamStore store = fl::ParamStore::FromModule(*global.net);
  const fl::ParamStore original = store;

  BuildSpec spec;
  spec.width_ratio = ratio;
  spec.depth_ratio = ratio;
  auto sub = tm.primary->Build(spec, rng);
  store.LoadInto(*sub.net, sub.mapping);

  // Write the (unchanged) sub-model back through the coordinate runs of
  // its upload into the flat store; the store must be unchanged.
  const fl::ClientUpdate upload =
      fl::ExtractUpdate(*sub.net, sub.mapping, store, 1.0);
  std::vector<Scalar> flat(store.flat_size());
  store.ForEachInLayout([&](std::size_t offset, Tensor& t) {
    std::copy(t.data().begin(), t.data().end(), flat.begin() + offset);
  });
  std::size_t k = 0;
  for (const ops::CoordRun& run : upload.runs) {
    for (std::size_t i = 0; i < run.length; ++i) {
      flat[run.offset + i] = upload.values[k++];
    }
  }
  ASSERT_EQ(k, upload.values.size());
  store.ForEachInLayout([&](std::size_t offset, Tensor& t) {
    std::copy(flat.begin() + offset, flat.begin() + offset + t.numel(),
              t.data().begin());
  });
  for (const auto& name : store.Names()) {
    EXPECT_TRUE(store.Get(name).AllClose(original.Get(name), 0.0f)) << name;
  }
}

// Prefix sub-models are nested: the ratio-r sub-model's parameters are a
// sub-tensor of the ratio-r' model for r < r' (HeteroFL's invariant).
TEST_P(SlicingSweep, PrefixNestedness) {
  const auto& [task, ratio] = GetParam();
  if (ratio >= 1.0) GTEST_SKIP() << "needs a strictly larger sibling";
  Rng rng(12);
  const TaskModels tm = MakeTaskModels(task);
  BuildSpec full_spec;
  full_spec.multi_head = true;
  auto global = tm.primary->Build(full_spec, rng);
  fl::ParamStore store = fl::ParamStore::FromModule(*global.net);

  BuildSpec small_spec, large_spec;
  small_spec.width_ratio = ratio;
  large_spec.width_ratio = 1.0;
  auto small = tm.primary->Build(small_spec, rng);
  auto large = tm.primary->Build(large_spec, rng);
  store.LoadInto(*small.net, small.mapping);
  store.LoadInto(*large.net, large.mapping);

  std::vector<nn::NamedParam> sp, lp;
  small.net->CollectParams("", sp);
  large.net->CollectParams("", lp);
  std::map<std::string, nn::Parameter*> large_by_name;
  for (auto& p : lp) large_by_name[p.name] = p.param;

  for (std::size_t i = 0; i < sp.size(); ++i) {
    auto it = large_by_name.find(sp[i].name);
    ASSERT_NE(it, large_by_name.end()) << sp[i].name;
    // The small tensor equals the gather of the large one at the small
    // model's indices (indices into the global == indices into the full
    // local model for prefix slicing).
    const Tensor expect =
        ops::GatherDims(it->second->value, small.mapping[i].index);
    EXPECT_TRUE(sp[i].param->value.AllClose(expect, 0.0f)) << sp[i].name;
  }
}

// Multi-head builds expose exactly one logits tensor per kept block, all
// with the class dimension.
TEST_P(SlicingSweep, MultiHeadExitsConsistent) {
  const auto& [task, ratio] = GetParam();
  Rng rng(13);
  const TaskModels tm = MakeTaskModels(task);
  BuildSpec spec;
  spec.depth_ratio = ratio;
  spec.multi_head = true;
  auto built = tm.primary->Build(spec, rng);
  auto& trunk = built.trunk();
  EXPECT_EQ(trunk.num_heads(), trunk.num_blocks());

  Shape in = tm.primary->sample_shape();
  in.insert(in.begin(), 2);
  Tensor x(in);
  if (in.size() == 2) {  // token ids
    for (auto& v : x.data()) v = 1.0f;
  }
  const auto logits = trunk.InferHeads(x, nn::NormStats::kRunning).logits;
  for (const auto& l : logits) {
    EXPECT_EQ(l.shape(), Shape({2, tm.primary->num_classes()}));
  }
}

// Deterministic builds: the same spec and seed produce identical params.
TEST_P(SlicingSweep, BuildDeterminism) {
  const auto& [task, ratio] = GetParam();
  const TaskModels tm = MakeTaskModels(task);
  BuildSpec spec;
  spec.width_ratio = ratio;
  Rng r1(77), r2(77);
  auto a = tm.primary->Build(spec, r1);
  auto b = tm.primary->Build(spec, r2);
  std::vector<nn::NamedParam> pa, pb;
  a.net->CollectParams("", pa);
  b.net->CollectParams("", pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].param->value.AllClose(pb[i].param->value, 0.0f));
  }
}

}  // namespace
}  // namespace mhbench::models
