#include "nn/linear.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(LinearTest, ForwardKnownValues) {
  // y = x W^T + b with W = [[1,2],[3,4]], b = [10, 20].
  Linear lin(Tensor({2, 2}, std::vector<Scalar>{1, 2, 3, 4}),
             Tensor::FromVector({10, 20}));
  Tensor x({1, 2}, std::vector<Scalar>{1, 1});
  const Tensor y = lin.Forward(x);
  EXPECT_TRUE(y.AllClose(Tensor({1, 2}, std::vector<Scalar>{13, 27})));
}

TEST(LinearTest, NoBiasVariant) {
  Linear lin(Tensor({1, 2}, std::vector<Scalar>{2, 3}), Tensor());
  EXPECT_FALSE(lin.has_bias());
  Tensor x({1, 2}, std::vector<Scalar>{1, 1});
  EXPECT_TRUE(lin.Forward(x).AllClose(Tensor({1, 1}, {5.0f})));
}

TEST(LinearTest, ShapesValidated) {
  Rng rng(1);
  Linear lin(3, 4, rng);
  EXPECT_EQ(lin.in_features(), 3);
  EXPECT_EQ(lin.out_features(), 4);
  Tensor bad({2, 5});
  EXPECT_THROW(lin.Forward(bad), Error);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  const Tensor x = Tensor::Randn({5, 4}, rng);
  testing::ExpectGradientsClose(lin, x, rng);
}

TEST(LinearTest, GradientCheckNoBias) {
  Rng rng(3);
  Linear lin(3, 2, rng, /*bias=*/false);
  const Tensor x = Tensor::Randn({4, 3}, rng);
  testing::ExpectGradientsClose(lin, x, rng);
}

TEST(LinearTest, GradAccumulatesAcrossBackwards) {
  Rng rng(4);
  Linear lin(2, 2, rng);
  const Tensor x = Tensor::Randn({3, 2}, rng);
  const Tensor g = Tensor::Randn({3, 2}, rng);
  lin.Forward(x);
  lin.Backward(g);
  const Tensor after_one = lin.weight().grad;
  lin.Forward(x);
  lin.Backward(g);
  Tensor doubled = after_one;
  doubled.Scale(2.0f);
  EXPECT_TRUE(lin.weight().grad.AllClose(doubled, 1e-4f));
}

TEST(LinearTest, CollectParamsNames) {
  Rng rng(5);
  Linear lin(2, 2, rng);
  std::vector<NamedParam> params;
  lin.CollectParams("fc", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "fc/weight");
  EXPECT_EQ(params[1].name, "fc/bias");
}

TEST(LinearTest, BackwardBeforeForwardThrows) {
  Rng rng(6);
  Linear lin(2, 2, rng);
  Tensor g({1, 2});
  EXPECT_THROW(lin.Backward(g), Error);
}

}  // namespace
}  // namespace mhbench::nn
