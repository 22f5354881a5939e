#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/optimizer.h"

namespace mhbench::nn {
namespace {

TEST(AdamTest, FirstStepIsSignedLr) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Linear lin(Tensor({1, 2}, std::vector<Scalar>{0, 0}), Tensor());
  AdamOptions opts;
  opts.lr = 0.1;
  Adam adam(lin, opts);
  lin.weight().grad[0] = 5.0f;
  lin.weight().grad[1] = -0.01f;
  adam.Step();
  EXPECT_NEAR(lin.weight().value[0], -0.1f, 1e-4);
  EXPECT_NEAR(lin.weight().value[1], 0.1f, 1e-4);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Linear lin(Tensor({1, 1}, {0.0f}), Tensor());
  AdamOptions opts;
  opts.lr = 0.05;
  Adam adam(lin, opts);
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    lin.weight().grad[0] = 2.0f * (lin.weight().value[0] - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(lin.weight().value[0], 3.0f, 1e-2);
}

TEST(AdamTest, AdaptsToGradientScale) {
  // Two coordinates with wildly different gradient scales should move at
  // comparable speed (the point of Adam).
  Linear lin(Tensor({1, 2}, std::vector<Scalar>{0, 0}), Tensor());
  AdamOptions opts;
  opts.lr = 0.01;
  Adam adam(lin, opts);
  for (int i = 0; i < 50; ++i) {
    adam.ZeroGrad();
    lin.weight().grad[0] = 100.0f;
    lin.weight().grad[1] = 0.001f;
    adam.Step();
  }
  const double moved0 = std::abs(lin.weight().value[0]);
  const double moved1 = std::abs(lin.weight().value[1]);
  EXPECT_GT(moved1, 0.3 * moved0);
}

TEST(AdamTest, RunningStatsUntouched) {
  BatchNorm bn(1);
  bn.running_mean().value[0] = 3.0f;
  bn.running_mean().grad[0] = 100.0f;
  AdamOptions opts;
  opts.lr = 1.0;
  Adam adam(bn, opts);
  adam.Step();
  EXPECT_NEAR(bn.running_mean().value[0], 3.0f, 1e-6);
}

TEST(AdamTest, NoDecayOnNormParams) {
  BatchNorm bn(1);
  bn.gamma().value[0] = 5.0f;
  AdamOptions opts;
  opts.lr = 0.1;
  opts.weight_decay = 1.0;
  Adam adam(bn, opts);
  adam.Step();  // zero gradient, decay skipped on gamma
  EXPECT_NEAR(bn.gamma().value[0], 5.0f, 1e-6);
}

TEST(AdamTest, TrainsMlpFasterThanPlainSgdOnIllConditioned) {
  // Blobs with a large feature-scale imbalance: adaptive step sizes help.
  Rng rng(1);
  auto make_net = [&](std::uint64_t seed) {
    Rng r(seed);
    auto net = std::make_unique<Sequential>();
    net->Add(std::make_unique<Linear>(2, 16, r));
    net->Add(std::make_unique<ReLU>());
    net->Add(std::make_unique<Linear>(16, 2, r));
    return net;
  };
  Tensor x({64, 2});
  std::vector<int> y(64);
  for (int i = 0; i < 64; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(2));
    y[static_cast<std::size_t>(i)] = cls;
    x.at({i, 0}) = static_cast<Scalar>(rng.Gaussian(cls ? 40.0 : -40.0, 8.0));
    x.at({i, 1}) = static_cast<Scalar>(rng.Gaussian(cls ? -.05 : .05, 0.02));
  }
  auto run = [&](OptimizerKind kind) {
    auto net = make_net(7);
    OptimizerOptions oo;
    oo.kind = kind;
    oo.lr = kind == OptimizerKind::kAdam ? 0.01 : 0.0005;  // stable SGD lr
    oo.momentum = 0.0;
    auto opt = MakeOptimizer(*net, oo);
    double acc = 0;
    for (int e = 0; e < 30; ++e) {
      opt->ZeroGrad();
      Tensor grad;
      SoftmaxCrossEntropy(net->Forward(x), y, grad);
      net->Backward(grad);
      opt->Step();
      acc = Accuracy(net->Infer(x, NormStats::kRunning), y);
    }
    return acc;
  };
  EXPECT_GE(run(OptimizerKind::kAdam) + 1e-9, run(OptimizerKind::kSgd));
}

TEST(MakeOptimizerTest, FactoryDispatch) {
  Rng rng(2);
  Linear lin(2, 2, rng);
  OptimizerOptions oo;
  oo.kind = OptimizerKind::kAdam;
  auto adam = MakeOptimizer(lin, oo);
  EXPECT_NE(dynamic_cast<Adam*>(adam.get()), nullptr);
  oo.kind = OptimizerKind::kSgd;
  auto sgd = MakeOptimizer(lin, oo);
  EXPECT_NE(dynamic_cast<Sgd*>(sgd.get()), nullptr);
  EXPECT_DOUBLE_EQ(sgd->lr(), oo.lr);
  sgd->set_lr(0.5);
  EXPECT_DOUBLE_EQ(sgd->lr(), 0.5);
}

}  // namespace
}  // namespace mhbench::nn
