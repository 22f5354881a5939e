// End-to-end gradient checks of composite networks: a conv-bn-relu stack
// with residual connection, a small transformer block, and embeddings.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"
#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"

namespace mhbench::nn {
namespace {

TEST(CompositeGradTest, MlpStack) {
  Rng rng(1);
  Sequential net;
  net.Add(std::make_unique<Linear>(6, 8, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(8, 4, rng));
  const Tensor x = Tensor::Randn({3, 6}, rng);
  testing::ExpectGradientsClose(net, x, rng);
}

TEST(CompositeGradTest, ConvBnReluStack) {
  Rng rng(2);
  Sequential net;
  net.Add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng, /*bias=*/false));
  net.Add(std::make_unique<BatchNorm>(4));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<GlobalAvgPool2d>());
  net.Add(std::make_unique<Linear>(4, 3, rng));
  const Tensor x = Tensor::Randn({4, 2, 4, 4}, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 6e-2f;
  testing::ExpectGradientsClose(net, x, rng, opts);
}

TEST(CompositeGradTest, ResidualIdentitySkip) {
  Rng rng(3);
  auto body = std::make_unique<Sequential>();
  body->Add(std::make_unique<Linear>(5, 5, rng));
  // Tanh rather than ReLU: finite differencing across the ReLU kink is
  // unreliable for pre-activations near zero.
  body->Add(std::make_unique<Tanh>());
  Residual res(std::move(body), nullptr);
  const Tensor x = Tensor::Randn({3, 5}, rng);
  testing::ExpectGradientsClose(res, x, rng);
}

TEST(CompositeGradTest, ResidualProjectionSkip) {
  Rng rng(4);
  auto body = std::make_unique<Sequential>();
  body->Add(std::make_unique<Linear>(4, 6, rng));
  auto shortcut = std::make_unique<Linear>(4, 6, rng, /*bias=*/false);
  Residual res(std::move(body), std::move(shortcut));
  const Tensor x = Tensor::Randn({2, 4}, rng);
  testing::ExpectGradientsClose(res, x, rng);
}

TEST(CompositeGradTest, TransformerBlock) {
  Rng rng(5);
  // Pre-norm transformer block: x + Attn(LN(x)), then x + FFN(LN(x)).
  auto attn_body = std::make_unique<Sequential>();
  attn_body->Add(std::make_unique<LayerNorm>(4));
  attn_body->Add(std::make_unique<MultiHeadSelfAttention>(4, 2, rng));
  auto ffn_body = std::make_unique<Sequential>();
  ffn_body->Add(std::make_unique<LayerNorm>(4));
  // FFN over the feature axis needs 2-D input; for the gradient check we
  // run a rank-3-safe path: attention keeps rank 3, so test separately.
  Residual block(std::move(attn_body), nullptr);
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 6e-2f;
  opts.max_coords = 12;
  testing::ExpectGradientsClose(block, x, rng, opts);
}

TEST(CompositeGradTest, EmbeddingGradient) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  // Integer ids as tensor.
  Tensor ids({2, 3}, std::vector<Scalar>{0, 5, 9, 5, 5, 1});
  const Tensor y = emb.Forward(ids);
  Tensor coeffs = Tensor::Randn(y.shape(), rng);
  emb.ZeroGrad();
  emb.Forward(ids);
  emb.Backward(coeffs);
  // Token 5 appears three times: its gradient row is the sum of the three
  // coefficient rows.
  for (int j = 0; j < 4; ++j) {
    const float expect = coeffs.at({0, 1, j}) + coeffs.at({1, 0, j}) +
                         coeffs.at({1, 1, j});
    EXPECT_NEAR(emb.table().grad.at({5, j}), expect, 1e-5);
  }
  // Token 2 never appears.
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(emb.table().grad.at({2, j}), 0.0f);
  }
}

TEST(CompositeGradTest, SequentialCollectsNestedNames) {
  Rng rng(9);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 2, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(2, 2, rng));
  std::vector<NamedParam> params;
  net.CollectParams("net", params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "net/0/weight");
  EXPECT_EQ(params[2].name, "net/2/weight");
}

TEST(CompositeGradTest, FlattenRoundTrip) {
  Rng rng(10);
  Flatten flat;
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  const Tensor y = flat.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  const Tensor gx = flat.Backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

}  // namespace
}  // namespace mhbench::nn
