#include "nn/norm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(BatchNormTest, NormalizesTrainingBatch) {
  Rng rng(1);
  BatchNorm bn(3);
  const Tensor x = Tensor::Randn({16, 3, 4, 4}, rng, 5.0f);
  const Tensor y = bn.Forward(x);
  // Per-channel mean ~0, var ~1.
  const int n = 16, c = 3, s = 16;
  for (int ch = 0; ch < c; ++ch) {
    double sum = 0, sq = 0;
    for (int b = 0; b < n; ++b) {
      for (int i = 0; i < s; ++i) {
        const Scalar v =
            y[(static_cast<std::size_t>(b) * c + ch) * s + i];
        sum += v;
        sq += v * v;
      }
    }
    const double mean = sum / (n * s);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / (n * s) - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsConverge) {
  Rng rng(2);
  BatchNorm bn(2, /*momentum=*/0.5f);
  // Feed batches with known channel means (3, -1).
  for (int step = 0; step < 30; ++step) {
    Tensor x({8, 2, 2, 2});
    for (int b = 0; b < 8; ++b) {
      for (int i = 0; i < 4; ++i) {
        x[(static_cast<std::size_t>(b) * 2 + 0) * 4 + i] =
            3.0f + static_cast<Scalar>(rng.Gaussian()) * 0.1f;
        x[(static_cast<std::size_t>(b) * 2 + 1) * 4 + i] =
            -1.0f + static_cast<Scalar>(rng.Gaussian()) * 0.1f;
      }
    }
    bn.Forward(x);
  }
  EXPECT_NEAR(bn.running_mean().value[0], 3.0, 0.1);
  EXPECT_NEAR(bn.running_mean().value[1], -1.0, 0.1);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm bn(1);
  bn.running_mean().value[0] = 2.0f;
  bn.running_var().value[0] = 4.0f;
  Tensor x({1, 1, 1, 2}, std::vector<Scalar>{2.0f, 4.0f});
  const Tensor y = bn.Infer(x, NormStats::kRunning);
  EXPECT_NEAR(y[0], 0.0f, 1e-4);
  EXPECT_NEAR(y[1], (4.0 - 2.0) / std::sqrt(4.0 + 1e-5), 1e-4);
}

TEST(BatchNormTest, AffineParametersApplied) {
  BatchNorm bn(1);
  bn.gamma().value[0] = 2.0f;
  bn.beta().value[0] = 10.0f;
  bn.running_mean().value[0] = 0.0f;
  bn.running_var().value[0] = 1.0f;
  Tensor x({1, 1, 1, 1}, std::vector<Scalar>{1.0f});
  const Tensor y = bn.Infer(x, NormStats::kRunning);
  EXPECT_NEAR(y[0], 12.0f, 1e-3);
}

TEST(BatchNormTest, GradientCheckTrainMode) {
  Rng rng(3);
  BatchNorm bn(2);
  const Tensor x = Tensor::Randn({6, 2, 3, 3}, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  testing::ExpectGradientsClose(bn, x, rng, opts);
}

TEST(BatchNormTest, WorksOn2dInput) {
  Rng rng(5);
  BatchNorm bn(4);
  const Tensor x = Tensor::Randn({8, 4}, rng);
  const Tensor y = bn.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(BatchNormTest, CollectsRunningStatsAsParams) {
  BatchNorm bn(2);
  std::vector<NamedParam> params;
  bn.CollectParams("bn", params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[2].name, "bn/running_mean");
  EXPECT_EQ(params[3].name, "bn/running_var");
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(6);
  LayerNorm ln(8);
  const Tensor x = Tensor::Randn({4, 8}, rng, 3.0f);
  const Tensor y = ln.Forward(x);
  for (int i = 0; i < 4; ++i) {
    double sum = 0, sq = 0;
    for (int j = 0; j < 8; ++j) {
      sum += y.at({i, j});
      sq += static_cast<double>(y.at({i, j})) * y.at({i, j});
    }
    EXPECT_NEAR(sum / 8, 0.0, 1e-4);
    EXPECT_NEAR(sq / 8, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, WorksOnRank3) {
  Rng rng(7);
  LayerNorm ln(4);
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  EXPECT_EQ(ln.Forward(x).shape(), x.shape());
}

TEST(LayerNormTest, GradientCheck) {
  Rng rng(8);
  LayerNorm ln(5);
  const Tensor x = Tensor::Randn({3, 5}, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  testing::ExpectGradientsClose(ln, x, rng, opts);
}

TEST(LayerNormTest, DimMismatchThrows) {
  LayerNorm ln(4);
  Tensor x({2, 5});
  EXPECT_THROW(ln.Forward(x), Error);
}

}  // namespace
}  // namespace mhbench::nn
