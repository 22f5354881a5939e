// Cross-family structural tests: every family must build at every
// width/depth ratio, produce correctly shaped logits, and yield a parameter
// mapping that gathers consistently from the full model's tensors.
#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "models/zoo.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace mhbench::models {
namespace {

Tensor MakeInput(const ModelFamily& fam, int batch, Rng& rng) {
  Shape shape = fam.sample_shape();
  shape.insert(shape.begin(), batch);
  if (shape.size() == 2) {
    // Token ids.
    Tensor ids(shape);
    for (auto& v : ids.data()) {
      v = static_cast<Scalar>(rng.UniformInt(16));
    }
    return ids;
  }
  return Tensor::Randn(shape, rng, 1.0f);
}

class AllFamiliesTest
    : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Tasks, AllFamiliesTest,
                         ::testing::ValuesIn(AllTaskNames()));

TEST_P(AllFamiliesTest, FullBuildForwardShape) {
  Rng rng(1);
  const TaskModels tm = MakeTaskModels(GetParam());
  for (const FamilyPtr& fam :
       std::vector<FamilyPtr>{tm.primary, tm.topology.front(),
                              tm.topology.back()}) {
    BuildSpec spec;
    BuiltModel m = fam->Build(spec, rng);
    const Tensor x = MakeInput(*fam, 3, rng);
    const Tensor logits = m.net->Forward(x);
    EXPECT_EQ(logits.shape(), Shape({3, fam->num_classes()}))
        << fam->name();
  }
}

TEST_P(AllFamiliesTest, WidthRatiosBuildAndForward) {
  Rng rng(2);
  const TaskModels tm = MakeTaskModels(GetParam());
  for (double r : {0.25, 0.5, 0.75, 1.0}) {
    BuildSpec spec;
    spec.width_ratio = r;
    BuiltModel m = tm.primary->Build(spec, rng);
    const Tensor x = MakeInput(*tm.primary, 2, rng);
    const Tensor logits = m.net->Infer(x, nn::NormStats::kRunning);
    EXPECT_EQ(logits.dim(1), tm.primary->num_classes());
  }
}

TEST_P(AllFamiliesTest, DepthRatiosKeepBlocks) {
  Rng rng(3);
  const TaskModels tm = MakeTaskModels(GetParam());
  const int total = tm.primary->total_blocks();
  for (double r : {0.25, 0.5, 0.75, 1.0}) {
    BuildSpec spec;
    spec.depth_ratio = r;
    BuiltModel m = tm.primary->Build(spec, rng);
    auto& trunk = m.trunk();
    EXPECT_LE(trunk.num_blocks(), total);
    EXPECT_GE(trunk.num_blocks(), 1);
    const Tensor x = MakeInput(*tm.primary, 2, rng);
    EXPECT_EQ(m.net->Infer(x, nn::NormStats::kRunning).dim(1),
              tm.primary->num_classes());
  }
  // Full depth keeps everything.
  BuildSpec full;
  EXPECT_EQ(tm.primary->Build(full, rng).trunk().num_blocks(), total);
}

TEST_P(AllFamiliesTest, WidthParamsShrink) {
  Rng rng(4);
  const TaskModels tm = MakeTaskModels(GetParam());
  BuildSpec full;
  BuildSpec half;
  half.width_ratio = 0.5;
  const std::size_t pf = tm.primary->Build(full, rng).net->NumParams();
  const std::size_t ph = tm.primary->Build(half, rng).net->NumParams();
  EXPECT_LT(ph, pf) << tm.primary->name();
}

TEST_P(AllFamiliesTest, MultiHeadHasHeadPerBlock) {
  Rng rng(5);
  const TaskModels tm = MakeTaskModels(GetParam());
  BuildSpec spec;
  spec.multi_head = true;
  BuiltModel m = tm.primary->Build(spec, rng);
  auto& trunk = m.trunk();
  EXPECT_EQ(trunk.num_heads(), trunk.num_blocks());
  const Tensor x = MakeInput(*tm.primary, 2, rng);
  const auto logits = trunk.ForwardHeads(x);
  EXPECT_EQ(static_cast<int>(logits.size()), trunk.num_heads());
  for (const auto& l : logits) {
    EXPECT_EQ(l.shape(), Shape({2, tm.primary->num_classes()}));
  }
}

// Sub-model parameters gathered from the full model's tensors must match
// the shapes of the sub-model's own parameters, and names must resolve.
TEST_P(AllFamiliesTest, MappingGathersFromGlobal) {
  Rng rng(6);
  const TaskModels tm = MakeTaskModels(GetParam());
  BuildSpec full_spec;
  full_spec.multi_head = true;  // global model holds every head
  BuiltModel global = tm.primary->Build(full_spec, rng);
  std::map<std::string, Tensor> store;
  {
    std::vector<nn::NamedParam> params;
    global.net->CollectParams("", params);
    for (auto& p : params) store[p.name] = p.param->value;
  }
  for (double r : {0.25, 0.5, 1.0}) {
    BuildSpec spec;
    spec.width_ratio = r;
    spec.depth_ratio = r;
    BuiltModel sub = tm.primary->Build(spec, rng);
    std::vector<nn::NamedParam> params;
    sub.net->CollectParams("", params);
    ASSERT_EQ(params.size(), sub.mapping.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      const auto& slice = sub.mapping[i];
      EXPECT_EQ(params[i].name, slice.name);
      auto it = store.find(slice.name);
      ASSERT_NE(it, store.end())
          << "global store missing " << slice.name << " (" << GetParam()
          << ", r=" << r << ")";
      const Tensor gathered = ops::GatherDims(it->second, slice.index);
      EXPECT_EQ(gathered.shape(), params[i].param->value.shape())
          << slice.name;
    }
  }
}

TEST_P(AllFamiliesTest, RollingOffsetsStayValid) {
  Rng rng(7);
  const TaskModels tm = MakeTaskModels(GetParam());
  for (int offset : {0, 1, 7, 100}) {
    BuildSpec spec;
    spec.width_ratio = 0.5;
    spec.rolling = true;
    spec.width_offset = offset;
    BuiltModel m = tm.primary->Build(spec, rng);
    const Tensor x = MakeInput(*tm.primary, 2, rng);
    EXPECT_EQ(m.net->Infer(x, nn::NormStats::kRunning).dim(1),
              tm.primary->num_classes());
  }
}

TEST_P(AllFamiliesTest, SubModelTrainsOneStep) {
  Rng rng(8);
  const TaskModels tm = MakeTaskModels(GetParam());
  BuildSpec spec;
  spec.width_ratio = 0.5;
  BuiltModel m = tm.primary->Build(spec, rng);
  nn::SgdOptions opts;
  opts.lr = 0.05;
  nn::Sgd sgd(*m.net, opts);
  const Tensor x = MakeInput(*tm.primary, 4, rng);
  std::vector<int> y = {0, 1, 0, 1};
  sgd.ZeroGrad();
  Tensor grad;
  const double l0 = nn::SoftmaxCrossEntropy(m.net->Forward(x), y, grad);
  m.net->Backward(grad);
  sgd.Step();
  Tensor grad2;
  const double l1 = nn::SoftmaxCrossEntropy(m.net->Forward(x), y, grad2);
  EXPECT_LT(l1, l0 + 0.05) << tm.primary->name();
}

TEST_P(AllFamiliesTest, ConvStemComputesNoInputGradient) {
  // Nothing reads the gradient of a model's raw input, so a conv stem
  // skips it and Backward returns an empty tensor; a token model's
  // embedding returns its (zero) id-shaped gradient as before.
  Rng rng(9);
  const TaskModels tm = MakeTaskModels(GetParam());
  std::vector<FamilyPtr> families = tm.topology;
  families.push_back(tm.primary);
  for (const FamilyPtr& family : families) {
    SCOPED_TRACE(family->name());
    BuiltModel m = family->Build(BuildSpec{}, rng);
    const Tensor x = MakeInput(*family, 4, rng);
    Tensor grad;
    nn::SoftmaxCrossEntropy(m.net->Forward(x), {0, 1, 0, 1}, grad);
    const Tensor dx = m.net->Backward(grad);
    const bool token_ids = family->sample_shape().size() == 1;
    EXPECT_EQ(dx.empty(), !token_ids);
  }
}

TEST(TrunkModelTest, MultiHeadBackwardTrainsAllHeads) {
  Rng rng(9);
  const TaskModels tm = MakeTaskModels("cifar100");
  BuildSpec spec;
  spec.multi_head = true;
  BuiltModel m = tm.primary->Build(spec, rng);
  auto& trunk = m.trunk();
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  std::vector<int> y = {0, 1};
  auto logits = trunk.ForwardHeads(x);
  std::vector<Tensor> grads(logits.size());
  for (std::size_t h = 0; h < logits.size(); ++h) {
    nn::SoftmaxCrossEntropy(logits[h], y, grads[h]);
  }
  trunk.ZeroGrad();
  trunk.BackwardHeads(grads);
  // Every head's linear layer must have received gradient.
  std::vector<nn::NamedParam> params;
  trunk.CollectParams("", params);
  int heads_with_grad = 0;
  for (auto& p : params) {
    if (p.name.find("head") != std::string::npos &&
        p.name.find("weight") != std::string::npos &&
        p.param->grad.MaxAbs() > 0) {
      ++heads_with_grad;
    }
  }
  EXPECT_EQ(heads_with_grad, trunk.num_heads());
}

TEST(TrunkModelTest, PartialHeadGradientsSkipMissing) {
  Rng rng(10);
  const TaskModels tm = MakeTaskModels("cifar100");
  BuildSpec spec;
  spec.multi_head = true;
  BuiltModel m = tm.primary->Build(spec, rng);
  auto& trunk = m.trunk();
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  auto logits = trunk.ForwardHeads(x);
  std::vector<Tensor> grads(logits.size());  // all empty except the first
  grads[0] = Tensor(logits[0].shape(), 1.0f);
  trunk.ZeroGrad();
  trunk.BackwardHeads(grads);
  std::vector<nn::NamedParam> params;
  trunk.CollectParams("", params);
  for (auto& p : params) {
    if (p.name.find("head0/") != std::string::npos &&
        p.name.find("weight") != std::string::npos) {
      EXPECT_GT(p.param->grad.MaxAbs(), 0.0f);
    }
    // Deeper heads got no gradient.
    if (p.name.find("head3/") != std::string::npos) {
      EXPECT_EQ(p.param->grad.MaxAbs(), 0.0f);
    }
  }
}

TEST(TrunkModelTest, CapturesEmbedding) {
  Rng rng(11);
  const TaskModels tm = MakeTaskModels("cifar10");
  BuildSpec spec;
  BuiltModel m = tm.primary->Build(spec, rng);
  auto& trunk = m.trunk();
  trunk.set_capture_embedding(true);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  trunk.ForwardHeads(x);
  EXPECT_FALSE(trunk.last_embedding().empty());
  EXPECT_EQ(trunk.last_embedding().dim(0), 2);
  // The evaluation pass returns the same embedding (batch statistics match
  // the training pass) without touching the model.
  const Tensor emb =
      trunk.InferHeads(x, nn::NormStats::kBatch, /*embedding=*/true).embedding;
  EXPECT_EQ(emb.shape(), trunk.last_embedding().shape());
  EXPECT_TRUE(std::equal(emb.data().begin(), emb.data().end(),
                         trunk.last_embedding().data().begin()));
}

TEST(ZooTest, UnknownTaskThrows) {
  EXPECT_THROW(MakeTaskModels("imagenet"), Error);
  EXPECT_THROW(TaskNumClasses("imagenet"), Error);
}

TEST(ZooTest, TopologyFamiliesDiffer) {
  const TaskModels tm = MakeTaskModels("cifar100");
  Rng rng(12);
  BuildSpec spec;
  std::vector<std::size_t> sizes;
  for (const auto& fam : tm.topology) {
    sizes.push_back(fam->Build(spec, rng).net->NumParams());
  }
  // Smallest-first ordering.
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i - 1], sizes[i]);
  }
  EXPECT_LT(sizes.front(), sizes.back());
}

}  // namespace
}  // namespace mhbench::models
