#include "nn/activation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(ReluTest, ClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1, 0, 2});
  EXPECT_TRUE(relu.Forward(x).AllClose(Tensor::FromVector({0, 0, 2})));
}

TEST(ReluTest, GradientMasksNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1, 2});
  relu.Forward(x);
  const Tensor g = relu.Backward(Tensor::FromVector({5, 5}));
  EXPECT_TRUE(g.AllClose(Tensor::FromVector({0, 5})));
}

TEST(ReluTest, GradientCheck) {
  Rng rng(1);
  ReLU relu;
  // Shift away from 0 to avoid the kink.
  Tensor x = Tensor::Randn({4, 6}, rng);
  for (auto& v : x.data()) {
    if (std::abs(v) < 0.1f) v += 0.5f;
  }
  testing::ExpectGradientsClose(relu, x, rng);
}

TEST(GeluTest, KnownValues) {
  Gelu gelu;
  Tensor x = Tensor::FromVector({0.0f});
  EXPECT_NEAR(gelu.Forward(x)[0], 0.0f, 1e-6);
  Tensor big = Tensor::FromVector({10.0f});
  EXPECT_NEAR(gelu.Forward(big)[0], 10.0f, 1e-3);
  Tensor neg = Tensor::FromVector({-10.0f});
  EXPECT_NEAR(gelu.Forward(neg)[0], 0.0f, 1e-3);
}

TEST(GeluTest, GradientCheck) {
  Rng rng(2);
  Gelu gelu;
  const Tensor x = Tensor::Randn({3, 5}, rng);
  testing::ExpectGradientsClose(gelu, x, rng);
}

TEST(TanhTest, KnownValuesAndGradient) {
  Tanh tanh;
  Tensor x = Tensor::FromVector({0.0f, 100.0f});
  const Tensor y = tanh.Forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], 1.0f, 1e-5);
  Rng rng(3);
  const Tensor x2 = Tensor::Randn({4, 4}, rng);
  testing::ExpectGradientsClose(tanh, x2, rng);
}

}  // namespace
}  // namespace mhbench::nn
