// Tests for the extended CV families (GoogLeNet/EfficientNet analogues)
// and the ConcatBranches primitive they rely on.
#include <map>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fl/param_store.h"
#include "models/efficientnet_like.h"
#include "models/googlenet_like.h"
#include "models/zoo.h"
#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace mhbench::models {
namespace {

TEST(ConcatBranchesTest, ConcatenatesAlongChannels) {
  using namespace nn;
  std::vector<ModulePtr> branches;
  // Two "branches" that scale the input by different constants via 1x1
  // linear layers on [N, C] input.
  branches.push_back(std::make_unique<Linear>(
      Tensor({2, 3}, std::vector<Scalar>{1, 0, 0, 0, 1, 0}), Tensor()));
  branches.push_back(std::make_unique<Linear>(
      Tensor({1, 3}, std::vector<Scalar>{0, 0, 2}), Tensor()));
  ConcatBranches cat(std::move(branches));
  Tensor x({1, 3}, std::vector<Scalar>{10, 20, 30});
  const Tensor y = cat.Forward(x);
  EXPECT_TRUE(y.AllClose(Tensor({1, 3}, std::vector<Scalar>{10, 20, 60})));
}

TEST(ConcatBranchesTest, BackwardSplitsGradients) {
  using namespace nn;
  Rng rng(1);
  std::vector<ModulePtr> branches;
  branches.push_back(std::make_unique<Linear>(3, 2, rng));
  branches.push_back(std::make_unique<Linear>(3, 4, rng));
  ConcatBranches cat(std::move(branches));
  const Tensor x = Tensor::Randn({5, 3}, rng);
  const Tensor y = cat.Forward(x);
  EXPECT_EQ(y.shape(), Shape({5, 6}));
  const Tensor g = Tensor::Randn(y.shape(), rng);
  const Tensor gx = cat.Backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
  // Numerical check on one input coordinate.
  Tensor coeff = g;
  auto loss = [&](const Tensor& in) {
    ConcatBranches* c = &cat;
    const Tensor out = c->Forward(in);
    double l = 0;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      l += static_cast<double>(coeff[i]) * out[i];
    }
    return l;
  };
  Tensor xp = x, xm = x;
  xp[0] += 1e-2f;
  xm[0] -= 1e-2f;
  const double num = (loss(xp) - loss(xm)) / 2e-2;
  EXPECT_NEAR(gx[0], num, 2e-2 * std::max(1.0, std::abs(num)));
}

TEST(ConcatBranchesTest, ParamNamesPerBranch) {
  using namespace nn;
  Rng rng(2);
  std::vector<ModulePtr> branches;
  branches.push_back(std::make_unique<Linear>(2, 2, rng));
  branches.push_back(std::make_unique<Linear>(2, 2, rng));
  ConcatBranches cat(std::move(branches));
  std::vector<NamedParam> params;
  cat.CollectParams("blk", params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "blk/branch0/weight");
  EXPECT_EQ(params[2].name, "blk/branch1/weight");
}

TEST(GoogleNetLikeTest, SplitBranchesSumsToStage) {
  for (int s : {4, 8, 15, 16, 33}) {
    int b1 = 0, b2 = 0, b3 = 0;
    GoogleNetLike::SplitBranches(s, b1, b2, b3);
    EXPECT_EQ(b1 + b2 + b3, s);
    EXPECT_GT(b1, 0);
    EXPECT_GT(b2, 0);
    EXPECT_GT(b3, 0);
  }
}

TEST(GoogleNetLikeTest, BuildsAndForwardsAllRatios) {
  Rng rng(3);
  GoogleNetLike fam(GoogleNetLikeConfig{});
  for (double r : {0.25, 0.5, 0.75, 1.0}) {
    BuildSpec spec;
    spec.width_ratio = r;
    auto built = fam.Build(spec, rng);
    const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
    EXPECT_EQ(built.net->Forward(x).shape(), Shape({2, 10})) << r;
  }
}

TEST(GoogleNetLikeTest, MappingGathersFromGlobal) {
  Rng rng(4);
  GoogleNetLike fam(GoogleNetLikeConfig{});
  BuildSpec full;
  full.multi_head = true;
  auto global = fam.Build(full, rng);
  fl::ParamStore store = fl::ParamStore::FromModule(*global.net);
  for (double r : {0.25, 0.5}) {
    BuildSpec spec;
    spec.width_ratio = r;
    auto sub = fam.Build(spec, rng);
    // Must not throw and must produce exactly matching shapes.
    store.LoadInto(*sub.net, sub.mapping);
    const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
    EXPECT_EQ(sub.net->Infer(x, nn::NormStats::kRunning).dim(1), 10);
  }
}

TEST(GoogleNetLikeTest, DepthSlicingKeepsBlocks) {
  Rng rng(5);
  GoogleNetLike fam(GoogleNetLikeConfig{});
  BuildSpec spec;
  spec.depth_ratio = 0.5;
  auto built = fam.Build(spec, rng);
  EXPECT_EQ(built.trunk().num_blocks(), 2);  // of 4
  const Tensor x = Tensor::Randn({1, 3, 8, 8}, rng);
  EXPECT_EQ(built.net->Infer(x, nn::NormStats::kRunning).dim(1), 10);
}

TEST(GoogleNetLikeTest, TrainsOneStep) {
  Rng rng(6);
  GoogleNetLike fam(GoogleNetLikeConfig{});
  auto built = fam.Build(BuildSpec{}, rng);
  const Tensor x = Tensor::Randn({4, 3, 8, 8}, rng);
  const Tensor logits = built.net->Forward(x);
  Tensor grad(logits.shape(), 0.1f);
  built.net->ZeroGrad();
  built.net->Backward(grad);
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  int with_grad = 0;
  for (auto& p : params) {
    if (p.name.find("running_") == std::string::npos &&
        p.param->grad.MaxAbs() > 0) {
      ++with_grad;
    }
  }
  EXPECT_GT(with_grad, 10);
}

TEST(EfficientNetLikeTest, CompoundScalingGrows) {
  std::size_t prev = 0;
  Rng rng(7);
  for (int compound : {0, 2, 4}) {
    EfficientNetLikeConfig cfg;
    cfg.compound = compound;
    EfficientNetLike fam(cfg);
    const std::size_t params = fam.Build(BuildSpec{}, rng).net->NumParams();
    EXPECT_GT(params, prev) << compound;
    prev = params;
  }
}

TEST(EfficientNetLikeTest, ForwardShape) {
  Rng rng(8);
  EfficientNetLike fam(EfficientNetLikeConfig{});
  auto built = fam.Build(BuildSpec{}, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(built.net->Forward(x).shape(), Shape({2, 10}));
}

TEST(MixedCvFamiliesTest, FourDistinctArchitectures) {
  const auto fams = MakeMixedCvFamilies(10);
  ASSERT_EQ(fams.size(), 4u);
  Rng rng(9);
  std::map<std::string, std::size_t> sizes;
  for (const auto& f : fams) {
    sizes[f->name()] = f->Build(BuildSpec{}, rng).net->NumParams();
    EXPECT_EQ(f->num_classes(), 10);
  }
  EXPECT_EQ(sizes.size(), 4u);  // distinct names
  EXPECT_TRUE(sizes.count("googlenet-like"));
  EXPECT_TRUE(sizes.count("efficientnet-like"));
}

}  // namespace
}  // namespace mhbench::models
