#include "nn/attention.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"

namespace mhbench::nn {
namespace {

TEST(AttentionTest, OutputShape) {
  Rng rng(1);
  MultiHeadSelfAttention attn(8, 2, rng);
  const Tensor x = Tensor::Randn({2, 5, 8}, rng);
  EXPECT_EQ(attn.Forward(x).shape(), Shape({2, 5, 8}));
}

TEST(AttentionTest, RejectsIndivisibleHeads) {
  Rng rng(2);
  EXPECT_THROW(MultiHeadSelfAttention(7, 2, rng), Error);
}

TEST(AttentionTest, SingleTokenActsLikeProjection) {
  // With L = 1 attention weights are trivially 1, so the layer reduces to
  // Wo(Wv(x)).
  Rng rng(3);
  MultiHeadSelfAttention attn(4, 1, rng);
  const Tensor x = Tensor::Randn({1, 1, 4}, rng);
  const Tensor y1 = attn.Forward(x);
  const Tensor y2 = attn.Forward(x);
  EXPECT_TRUE(y1.AllClose(y2));
}

TEST(AttentionTest, PermutationEquivariance) {
  // Self-attention without positional encoding commutes with permutations
  // of the sequence axis.
  Rng rng(4);
  MultiHeadSelfAttention attn(4, 2, rng);
  Tensor x = Tensor::Randn({1, 3, 4}, rng);
  const Tensor y = attn.Forward(x);
  // Swap tokens 0 and 2 in the input.
  Tensor xp = x;
  for (int j = 0; j < 4; ++j) {
    std::swap(xp[static_cast<std::size_t>(j)],
              xp[static_cast<std::size_t>(2 * 4 + j)]);
  }
  const Tensor yp = attn.Forward(xp);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(y[static_cast<std::size_t>(j)],
                yp[static_cast<std::size_t>(2 * 4 + j)], 1e-4);
    EXPECT_NEAR(y[static_cast<std::size_t>(2 * 4 + j)],
                yp[static_cast<std::size_t>(j)], 1e-4);
  }
}

TEST(AttentionTest, GradientCheck) {
  Rng rng(5);
  MultiHeadSelfAttention attn(4, 2, rng);
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  testing::GradCheckOptions opts;
  opts.tolerance = 5e-2f;
  opts.max_coords = 16;
  testing::ExpectGradientsClose(attn, x, rng, opts);
}

TEST(AttentionTest, ParamNamesIncludeAllProjections) {
  Rng rng(6);
  MultiHeadSelfAttention attn(4, 2, rng);
  std::vector<NamedParam> params;
  attn.CollectParams("attn", params);
  EXPECT_EQ(params.size(), 8u);  // 4 projections x (weight, bias)
  EXPECT_EQ(params[0].name, "attn/wq/weight");
}

}  // namespace
}  // namespace mhbench::nn
