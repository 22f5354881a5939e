#include "nn/conv.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(Conv2dTest, IdentityKernel) {
  // 1x1 kernel with weight 1 on a single channel is the identity.
  Conv2d conv(Tensor({1, 1, 1, 1}, {1.0f}), Tensor(), 1, 0);
  Rng rng(1);
  const Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  EXPECT_TRUE(conv.Forward(x).AllClose(x));
}

TEST(Conv2dTest, KnownSum3x3) {
  // All-ones 3x3 kernel with pad 1 computes neighborhood sums.
  Conv2d conv(Tensor({1, 1, 3, 3}, 1.0f), Tensor(), 1, 1);
  Tensor x({1, 1, 2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  const Tensor y = conv.Forward(x);
  // Every output = sum of all in-window pixels; corners see all 4 pixels
  // minus those outside.  For 2x2 all-window-covered: each output = 10 when
  // window covers everything; here (0,0) window covers pixels {1,2,3,4}.
  EXPECT_TRUE(y.AllClose(Tensor({1, 1, 2, 2}, std::vector<Scalar>{10, 10, 10, 10})));
}

TEST(Conv2dTest, BiasApplied) {
  Conv2d conv(Tensor({1, 1, 1, 1}, {0.0f}), Tensor::FromVector({3.0f}), 1, 0);
  Tensor x({1, 1, 2, 2});
  const Tensor y = conv.Forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Conv2dTest, OutputShapeStride2) {
  Rng rng(2);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Conv2dTest, InputChannelMismatchThrows) {
  Rng rng(3);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x({1, 2, 4, 4});
  EXPECT_THROW(conv.Forward(x), Error);
}

TEST(Conv2dTest, GradientCheck) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv2dTest, GradientCheckStride2NoBias) {
  Rng rng(5);
  Conv2d conv(2, 2, 3, 2, 1, rng, /*bias=*/false);
  const Tensor x = Tensor::Randn({1, 2, 6, 6}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv1dTest, ShapeAndGradient) {
  Rng rng(6);
  Conv1d conv(2, 4, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 8}, rng);
  const Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 4, 8}));
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv1dTest, StrideReducesLength) {
  Rng rng(7);
  Conv1d conv(1, 1, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({1, 1, 8}, rng);
  EXPECT_EQ(conv.Forward(x).shape(), Shape({1, 1, 4}));
}

TEST(Conv2dTest, ParamNames) {
  Rng rng(8);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  std::vector<NamedParam> params;
  conv.CollectParams("conv1", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv1/weight");
  EXPECT_EQ(params[1].name, "conv1/bias");
}

}  // namespace
}  // namespace mhbench::nn
