// The local-training loop's contract (fl::TrainLocal) and the participant
// slots clients stage their uploads into (fl::StagedUploads).
#include "fl/client.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "data/loader.h"
#include "nn/linear.h"
#include "nn/loss.h"

namespace mhbench::fl {
namespace {

constexpr int kSamples = 10;
constexpr int kFeatures = 4;

// Sample i's first feature is exactly i (the others are noise) and its
// label is i % 3, so a batch's first feature column names its samples.
data::Dataset SmallShard() {
  data::Dataset ds;
  Rng rng(3);
  ds.features = Tensor::Randn({kSamples, kFeatures}, rng, 0.1f);
  for (int i = 0; i < kSamples; ++i) {
    ds.features[static_cast<std::size_t>(i) * kFeatures] =
        static_cast<Scalar>(i);
    ds.labels.push_back(i % 3);
  }
  ds.num_classes = 3;
  return ds;
}

nn::Linear SmallModel() {
  Rng rng(5);
  return nn::Linear(kFeatures, 3, rng);
}

// Plain SGD, so a step moves each weight by exactly -lr * grad.
LocalTrainOptions PlainSgd() {
  LocalTrainOptions options;
  options.momentum = 0.0;
  options.weight_decay = 0.0;
  options.grad_clip = 0.0;
  options.lr = 0.5;
  return options;
}

std::vector<Scalar> Values(const Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

std::vector<int> SampleIds(const Tensor& x) {
  std::vector<int> ids;
  for (int i = 0; i < x.dim(0); ++i) {
    ids.push_back(static_cast<int>(
        std::lround(x[static_cast<std::size_t>(i) * kFeatures])));
  }
  return ids;
}

TEST(TrainLocalTest, ZeroGradRunsBeforeForward) {
  const data::Dataset shard = SmallShard();
  nn::Linear model = SmallModel();
  model.weight().grad.Fill(1.0f);
  model.bias().grad.Fill(1.0f);
  LocalTrainOptions options = PlainSgd();
  options.epochs = 2;
  options.batch_size = 4;
  int forwards = 0;
  BatchObjective objective;
  objective.forward = [&](const Tensor&, const std::vector<int>&) {
    EXPECT_EQ(model.weight().grad.MaxAbs(), 0.0f) << "forward " << forwards;
    EXPECT_EQ(model.bias().grad.MaxAbs(), 0.0f) << "forward " << forwards;
    ++forwards;
    return 0.0;
  };
  // Leave a gradient behind for the next batch's ZeroGrad to clear.
  objective.backward = [&] { model.weight().grad.Fill(2.0f); };
  Rng rng(9);
  TrainLocal(model, shard, options, rng, objective);
  EXPECT_EQ(forwards, 6);  // 2 epochs x 3 batches
}

TEST(TrainLocalTest, ClipThenStepRunAfterBackward) {
  const data::Dataset shard = SmallShard();
  nn::Linear model = SmallModel();
  const Tensor before = model.weight().value;
  LocalTrainOptions options = PlainSgd();
  options.batch_size = kSamples;  // one step
  options.grad_clip = 1.0;
  std::vector<std::string> calls;
  BatchObjective objective;
  objective.forward = [&](const Tensor&, const std::vector<int>&) {
    calls.push_back("forward");
    // The step has not run yet: the weights are the initial ones.
    EXPECT_TRUE(model.weight().value.AllClose(before, 0.0f));
    return 0.0;
  };
  objective.backward = [&] {
    calls.push_back("backward");
    model.weight().grad.Fill(3.0f);  // norm 3 * sqrt(12), clipped to 1
  };
  Rng rng(9);
  TrainLocal(model, shard, options, rng, objective);
  EXPECT_EQ(calls, (std::vector<std::string>{"forward", "backward"}));
  // The step applied backward's gradient scaled to unit norm.
  const auto moved = static_cast<float>(
      options.lr / std::sqrt(static_cast<double>(before.numel())));
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(model.weight().value[i], before[i] - moved, 1e-6f) << i;
  }
  EXPECT_EQ(model.bias().value.MaxAbs(), 0.0f);  // zero grad, no decay
}

TEST(TrainLocalTest, EpochHookRunsBeforeTheShuffle) {
  const data::Dataset shard = SmallShard();
  nn::Linear model = SmallModel();
  LocalTrainOptions options = PlainSgd();
  options.epochs = 3;
  options.batch_size = 4;
  std::vector<std::uint64_t> hook_draws;
  std::vector<int> seen;
  BatchObjective objective;
  objective.before_epoch = [&](Rng& rng) {
    hook_draws.push_back(rng.NextU64());
  };
  objective.forward = [&](const Tensor& x, const std::vector<int>&) {
    for (int id : SampleIds(x)) seen.push_back(id);
    return 0.0;
  };
  objective.backward = [] {};
  Rng rng(21);
  TrainLocal(model, shard, options, rng, objective);

  // Replay: per epoch, the hook's draw, then the epoch's shuffle.
  Rng replay(21);
  std::vector<std::uint64_t> want_draws;
  std::vector<int> want_seen;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    want_draws.push_back(replay.NextU64());
    data::BatchIterator batches(shard, options.batch_size, replay);
    Tensor x;
    std::vector<int> y;
    while (batches.Next(x, y)) {
      for (int id : SampleIds(x)) want_seen.push_back(id);
    }
  }
  EXPECT_EQ(hook_draws, want_draws);
  EXPECT_EQ(seen, want_seen);
}

TEST(TrainLocalTest, ReturnsTheLastEpochsMeanLoss) {
  const data::Dataset shard = SmallShard();
  nn::Linear model = SmallModel();
  LocalTrainOptions options = PlainSgd();
  options.epochs = 2;
  options.batch_size = 4;  // batches of 4, 4, 2
  double next_loss = 0.0;
  BatchObjective objective;
  objective.forward = [&](const Tensor&, const std::vector<int>&) {
    return next_loss += 1.0;  // 1, 2, 3 in epoch 0; 4, 5, 6 in epoch 1
  };
  objective.backward = [] {};
  Rng rng(2);
  EXPECT_EQ(TrainLocal(model, shard, options, rng, objective), 5.0);
}

TEST(TrainLocalTest, DefaultObjectiveIsCrossEntropy) {
  const data::Dataset shard = SmallShard();
  LocalTrainOptions options;  // momentum, weight decay and clipping on
  options.epochs = 2;
  options.batch_size = 3;
  options.grad_clip = 0.5;

  nn::Linear implicit = SmallModel();
  Rng rng_a(17);
  const double loss_a = TrainLocal(implicit, shard, options, rng_a);

  nn::Linear explicit_ce = SmallModel();
  Tensor grad;
  BatchObjective objective;
  objective.forward = [&](const Tensor& x, const std::vector<int>& y) {
    return nn::SoftmaxCrossEntropy(explicit_ce.Forward(x), y, grad);
  };
  objective.backward = [&] { explicit_ce.Backward(grad); };
  Rng rng_b(17);
  const double loss_b =
      TrainLocal(explicit_ce, shard, options, rng_b, objective);

  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(Values(implicit.weight().value),
            Values(explicit_ce.weight().value));
  EXPECT_EQ(Values(implicit.bias().value), Values(explicit_ce.bias().value));
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
}

TEST(StagedUploadsTest, SlotsFollowParticipantOrder) {
  StagedUploads<int> staged;
  staged.Begin({7, 2, 5});
  staged.For(5) = 50;
  staged.For(7) = 70;
  EXPECT_EQ(staged.participants(), (std::vector<int>{7, 2, 5}));
  EXPECT_EQ(staged.uploads(), (std::vector<int>{70, 0, 50}));
  // A new round starts from empty slots.
  staged.Begin({2});
  EXPECT_EQ(staged.uploads(), (std::vector<int>{0}));
}

TEST(StagedUploadsTest, RejectsClientsOutsideTheRound) {
  StagedUploads<int> staged;
  staged.Begin({3, 1});
  EXPECT_THROW(staged.For(0), Error);
  EXPECT_THROW(staged.For(2), Error);
  EXPECT_THROW(staged.For(4), Error);
  EXPECT_THROW(staged.For(-1), Error);
  staged.Begin({});
  EXPECT_THROW(staged.For(0), Error);
  staged.Begin({1});
  staged.Clear();
  EXPECT_THROW(staged.For(1), Error);
  EXPECT_TRUE(staged.uploads().empty());
}

}  // namespace
}  // namespace mhbench::fl
