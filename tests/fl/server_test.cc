#include "fl/server.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "models/zoo.h"

namespace mhbench::fl {
namespace {

TEST(GlobalModelTest, SeedsStoreFromFullMultiHeadModel) {
  Rng rng(1);
  const auto tm = models::MakeTaskModels("cifar100");
  GlobalModel gm(tm.primary, rng);
  // Store must contain every head any depth client would reference.
  const int total = tm.primary->total_blocks();
  for (int b = 0; b < total; ++b) {
    EXPECT_TRUE(gm.store().Has("head" + std::to_string(b) + "/1/weight")) << b;
  }
}

TEST(GlobalModelTest, LogitsShapeAndDeterminism) {
  Rng rng(2);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  Rng xr(3);
  const Tensor x = Tensor::Randn({4, 3, 8, 8}, xr);
  const Tensor a = gm.Logits(x);
  const Tensor b = gm.Logits(x);
  EXPECT_EQ(a.shape(), Shape({4, 10}));
  EXPECT_TRUE(a.AllClose(b));
}

TEST(GlobalModelTest, StoreEditsReachLogitsAfterSync) {
  Rng rng(4);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  Rng xr(5);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, xr);
  const Tensor before = gm.Logits(x);
  // Zero the deepest head's weights: logits become the bias alone.
  const std::string head =
      "head" + std::to_string(tm.primary->total_blocks() - 1);
  gm.store().GetMutable(head + "/1/weight").Fill(0.0f);
  gm.store().GetMutable(head + "/1/bias").Fill(0.0f);
  // Logits read the model as of the last Sync: the edit is invisible...
  EXPECT_TRUE(gm.Logits(x).AllClose(before, 0.0f));
  // ...until the store is synced in.
  gm.Sync();
  const Tensor after = gm.Logits(x);
  EXPECT_FALSE(after.AllClose(before));
  EXPECT_NEAR(after.MaxAbs(), 0.0f, 1e-6);
}

TEST(GlobalModelTest, EnsembleAveragesHeads) {
  Rng rng(6);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  Rng xr(7);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, xr);
  const Tensor ens = gm.EnsembleLogits(x);
  EXPECT_EQ(ens.shape(), Shape({2, 10}));
  // Manually average head outputs through the synced trunk.
  const auto& trunk = gm.trunk();
  auto logits = trunk.InferHeads(x, nn::NormStats::kRunning).logits;
  Tensor mean = logits.front();
  for (std::size_t h = 1; h < logits.size(); ++h) mean.AddInPlace(logits[h]);
  mean.Scale(1.0f / static_cast<Scalar>(logits.size()));
  EXPECT_TRUE(ens.AllClose(mean, 1e-4f));
}

}  // namespace
}  // namespace mhbench::fl
