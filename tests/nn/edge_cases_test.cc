// Edge cases and cross-checks across the nn substrate.
#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"

namespace mhbench::nn {
namespace {

TEST(EdgeCaseTest, EmptySequentialIsIdentity) {
  Sequential net;
  Rng rng(1);
  const Tensor x = Tensor::Randn({2, 3}, rng);
  EXPECT_TRUE(net.Forward(x).AllClose(x));
  EXPECT_TRUE(net.Backward(x).AllClose(x));
}

TEST(EdgeCaseTest, BatchSizeOneBatchNormTrain) {
  // One sample with spatial extent: batch stats still well defined.
  Rng rng(2);
  BatchNorm bn(2);
  const Tensor x = Tensor::Randn({1, 2, 4, 4}, rng);
  const Tensor y = bn.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
  }
}

TEST(EdgeCaseTest, EmbeddingRejectsOutOfVocabIds) {
  Rng rng(3);
  Embedding emb(8, 4, rng);
  Tensor bad({1, 2}, std::vector<Scalar>{0, 8});
  EXPECT_THROW(emb.Forward(bad), Error);
  Tensor neg({1, 1}, std::vector<Scalar>{-1});
  EXPECT_THROW(emb.Forward(neg), Error);
}

TEST(EdgeCaseTest, SingleHeadAttentionMatchesMultiHeadShapes) {
  Rng rng(4);
  MultiHeadSelfAttention one(8, 1, rng);
  MultiHeadSelfAttention four(8, 4, rng);
  const Tensor x = Tensor::Randn({2, 3, 8}, rng);
  EXPECT_EQ(one.Forward(x).shape(), four.Forward(x).shape());
}

TEST(EdgeCaseTest, CrossEntropySingleClass) {
  // Degenerate single-class problem: loss 0, gradient 0.
  Tensor logits({3, 1}, 5.0f);
  Tensor grad;
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, {0, 0, 0}, grad), 0.0, 1e-6);
  EXPECT_LT(grad.MaxAbs(), 1e-6f);
}

TEST(EdgeCaseTest, AccuracyEmptyBatchIsZero) {
  Tensor logits({1, 2});
  // Single wrong prediction (argmax ties -> picks 0).
  EXPECT_DOUBLE_EQ(Accuracy(logits, {1}), 0.0);
}

TEST(EdgeCaseTest, Conv1x1ActsAsPerPixelLinear) {
  Rng rng(5);
  // A 1x1 conv and a tokenwise linear with the same weights must agree.
  const Tensor w = Tensor::Randn({3, 2, 1, 1}, rng);
  Conv2d conv(w, Tensor(), 1, 0);
  const Tensor x = Tensor::Randn({1, 2, 4, 4}, rng);
  const Tensor y = conv.Forward(x);
  // Check one pixel by hand.
  for (int oc = 0; oc < 3; ++oc) {
    const float expect = w.at({oc, 0, 0, 0}) * x.at({0, 0, 2, 1}) +
                         w.at({oc, 1, 0, 0}) * x.at({0, 1, 2, 1});
    EXPECT_NEAR(y.at({0, oc, 2, 1}), expect, 1e-5);
  }
}

TEST(EdgeCaseTest, ResidualShapeMismatchThrows) {
  Rng rng(6);
  auto body = std::make_unique<Linear>(3, 4, rng);  // changes width
  Residual res(std::move(body), nullptr);           // identity skip
  const Tensor x = Tensor::Randn({2, 3}, rng);
  EXPECT_THROW(res.Forward(x), Error);
}

TEST(EdgeCaseTest, ConcatBranchMismatchedSpatialThrows) {
  Rng rng(7);
  std::vector<ModulePtr> branches;
  branches.push_back(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng));  // 8x8
  branches.push_back(std::make_unique<Conv2d>(1, 2, 3, 2, 1, rng));  // 4x4
  ConcatBranches cat(std::move(branches));
  const Tensor x = Tensor::Randn({1, 1, 8, 8}, rng);
  EXPECT_THROW(cat.Forward(x), Error);
}

TEST(EdgeCaseTest, ZeroGradResetsEntireTree) {
  Rng rng(8);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 4, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(4, 2, rng));
  const Tensor x = Tensor::Randn({3, 2}, rng);
  Tensor grad;
  SoftmaxCrossEntropy(net.Forward(x), {0, 1, 0}, grad);
  net.Backward(grad);
  net.ZeroGrad();
  std::vector<NamedParam> params;
  net.CollectParams("", params);
  for (auto& p : params) {
    EXPECT_EQ(p.param->grad.MaxAbs(), 0.0f) << p.name;
  }
}

TEST(EdgeCaseTest, NumParamsCountsEverything) {
  Rng rng(9);
  Sequential net;
  net.Add(std::make_unique<Linear>(3, 4, rng));       // 16
  net.Add(std::make_unique<BatchNorm>(4));            // 16 (incl. running)
  net.Add(std::make_unique<Linear>(4, 2, rng, false));  // 8
  EXPECT_EQ(net.NumParams(), 16u + 16u + 8u);
}

}  // namespace
}  // namespace mhbench::nn
