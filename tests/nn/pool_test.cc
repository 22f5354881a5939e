#include "nn/pool.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(GlobalAvgPoolTest, Averages) {
  GlobalAvgPool pool;
  Tensor x({1, 2, 2, 2}, std::vector<Scalar>{1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_NEAR(y[0], 2.5f, 1e-6);
  EXPECT_NEAR(y[1], 10.0f, 1e-6);
}

TEST(GlobalAvgPoolTest, GradientCheck) {
  Rng rng(2);
  GlobalAvgPool pool;
  const Tensor x = Tensor::Randn({2, 2, 3, 3}, rng);
  testing::ExpectGradientsClose(pool, x, rng);
}

TEST(GlobalAvgPoolTest, SequenceShapeAndGradient) {
  Rng rng(3);
  GlobalAvgPool pool;
  const Tensor x = Tensor::Randn({2, 4, 6}, rng);
  EXPECT_EQ(pool.Forward(x).shape(), Shape({2, 4}));
  testing::ExpectGradientsClose(pool, x, rng);
}

TEST(GlobalAvgPoolTest, SequenceMatchesItsUnitHeightImageBitwise) {
  Rng rng(5);
  GlobalAvgPool pool1, pool2;
  const Tensor x = Tensor::Randn({2, 3, 7}, rng);
  const Tensor y = pool1.Forward(x);
  const Tensor y4 = pool2.Forward(x.Reshape({2, 3, 1, 7}));
  ASSERT_EQ(y.shape(), y4.shape());
  EXPECT_EQ(std::memcmp(y.data().data(), y4.data().data(),
                        y.numel() * sizeof(Scalar)),
            0);
  const Tensor g = Tensor::Randn({2, 3}, rng);
  const Tensor gx = pool1.Backward(g);
  const Tensor gx4 = pool2.Backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_EQ(std::memcmp(gx.data().data(), gx4.data().data(),
                        gx.numel() * sizeof(Scalar)),
            0);
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
