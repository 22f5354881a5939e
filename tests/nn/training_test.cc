// End-to-end learning sanity: small networks must fit simple synthetic
// tasks, which validates forward/backward/optimizer working together.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/optimizer.h"
#include "nn/pool.h"

namespace mhbench::nn {
namespace {

// Two Gaussian blobs in 2-D; returns (inputs [n,2], labels).
void MakeBlobs(int n, Rng& rng, Tensor& x, std::vector<int>& y) {
  x = Tensor({n, 2});
  y.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(2));
    const double cx = cls == 0 ? -1.5 : 1.5;
    x.at({i, 0}) = static_cast<Scalar>(rng.Gaussian(cx, 0.6));
    x.at({i, 1}) = static_cast<Scalar>(rng.Gaussian(-cx, 0.6));
    y[static_cast<std::size_t>(i)] = cls;
  }
}

TEST(TrainingTest, MlpLearnsBlobs) {
  Rng rng(1);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 16, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(16, 2, rng));
  SgdOptions opts;
  opts.lr = 0.1;
  Sgd sgd(net, opts);

  Tensor x;
  std::vector<int> y;
  MakeBlobs(128, rng, x, y);
  double final_acc = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    sgd.ZeroGrad();
    const Tensor logits = net.Forward(x);
    Tensor grad;
    SoftmaxCrossEntropy(logits, y, grad);
    net.Backward(grad);
    sgd.Step();
    final_acc = Accuracy(net.Infer(x, NormStats::kRunning), y);
  }
  EXPECT_GT(final_acc, 0.95);
}

TEST(TrainingTest, LossDecreasesMonotonicallyEarly) {
  Rng rng(2);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 8, rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(8, 2, rng));
  SgdOptions opts;
  opts.lr = 0.05;
  opts.momentum = 0.0;
  Sgd sgd(net, opts);
  Tensor x;
  std::vector<int> y;
  MakeBlobs(64, rng, x, y);
  Tensor grad;
  double prev = 1e9;
  for (int i = 0; i < 10; ++i) {
    sgd.ZeroGrad();
    const double loss = SoftmaxCrossEntropy(net.Forward(x), y, grad);
    net.Backward(grad);
    sgd.Step();
    EXPECT_LT(loss, prev + 1e-6);
    prev = loss;
  }
}

TEST(TrainingTest, SmallCnnLearnsPatterns) {
  // Class 0: bright top half; class 1: bright bottom half.
  Rng rng(3);
  const int n = 64;
  Tensor x({n, 1, 4, 4});
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(2));
    y[static_cast<std::size_t>(i)] = cls;
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        const bool bright = (cls == 0) ? r < 2 : r >= 2;
        x.at({i, 0, r, c}) =
            static_cast<Scalar>(rng.Gaussian(bright ? 1.0 : -1.0, 0.3));
      }
    }
  }
  Sequential net;
  net.Add(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng, false));
  net.Add(std::make_unique<BatchNorm>(4));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<GlobalAvgPool2d>());
  net.Add(std::make_unique<Linear>(4, 2, rng));
  SgdOptions opts;
  opts.lr = 0.1;
  Sgd sgd(net, opts);
  for (int epoch = 0; epoch < 40; ++epoch) {
    sgd.ZeroGrad();
    Tensor grad;
    SoftmaxCrossEntropy(net.Forward(x), y, grad);
    net.Backward(grad);
    sgd.Step();
  }
  EXPECT_GT(Accuracy(net.Infer(x, NormStats::kRunning), y), 0.9);
}

}  // namespace
}  // namespace mhbench::nn
