#include "nn/pool.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(AvgPool2dTest, AveragesWindows) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 2.5f, 1e-6);
}

TEST(AvgPool2dTest, RequiresDivisibleExtents) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 3, 2});
  EXPECT_THROW(pool.Forward(x), Error);
}

TEST(AvgPool2dTest, GradientCheck) {
  Rng rng(1);
  AvgPool2d pool(2);
  const Tensor x = Tensor::Randn({2, 3, 4, 4}, rng);
  testing::ExpectGradientsClose(pool, x, rng);
}

TEST(GlobalAvgPool2dTest, Averages) {
  GlobalAvgPool2d pool;
  Tensor x({1, 2, 2, 2}, std::vector<Scalar>{1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_NEAR(y[0], 2.5f, 1e-6);
  EXPECT_NEAR(y[1], 10.0f, 1e-6);
}

TEST(GlobalAvgPool2dTest, GradientCheck) {
  Rng rng(2);
  GlobalAvgPool2d pool;
  const Tensor x = Tensor::Randn({2, 2, 3, 3}, rng);
  testing::ExpectGradientsClose(pool, x, rng);
}

TEST(GlobalAvgPool1dTest, ShapeAndGradient) {
  Rng rng(3);
  GlobalAvgPool1d pool;
  const Tensor x = Tensor::Randn({2, 4, 6}, rng);
  EXPECT_EQ(pool.Forward(x).shape(), Shape({2, 4}));
  testing::ExpectGradientsClose(pool, x, rng);
}

TEST(MeanPoolSeqTest, AveragesOverSequence) {
  MeanPoolSeq pool;
  Tensor x({1, 2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_NEAR(y[0], 2.0f, 1e-6);
  EXPECT_NEAR(y[1], 3.0f, 1e-6);
}

TEST(MeanPoolSeqTest, GradientCheck) {
  Rng rng(4);
  MeanPoolSeq pool;
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  testing::ExpectGradientsClose(pool, x, rng);
}

}  // namespace
}  // namespace mhbench::nn
