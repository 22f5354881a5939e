#include "algorithms/depthfl.h"

#include "fl/client.h"
#include "nn/loss.h"

namespace mhbench::algorithms {
namespace {

// Weight of each head's distillation term next to its cross-entropy, and
// the softmax temperature of the consensus the heads distill from.
constexpr double kDistillWeight = 0.5;
constexpr double kTemperature = 2.0;

}  // namespace

DepthFl::DepthFl(models::FamilyPtr family, std::uint64_t seed)
    : WeightSharingAlgorithm(std::move(family), seed) {}

models::BuildSpec DepthFl::ClientSpec(int client_id, int /*round*/,
                                      Rng& /*rng*/) {
  models::BuildSpec spec;
  spec.depth_ratio = ClientCapacity(client_id);
  spec.multi_head = true;
  return spec;
}

models::BuildSpec DepthFl::GlobalEvalSpec() {
  models::BuildSpec spec;
  spec.depth_ratio = MaxCapacity();
  return spec;
}

double DepthFl::TrainClientModel(models::BuiltModel& built,
                                 const data::Dataset& shard, Rng& rng) {
  auto& trunk = built.trunk();
  const int num_heads = trunk.num_heads();
  const bool distill = num_heads > 1;
  // Every head's loss gradient, from forward to backward.
  std::vector<Tensor> grads;
  fl::BatchObjective objective;
  objective.forward = [&](const Tensor& x, const std::vector<int>& y) {
    auto logits = trunk.ForwardHeads(x);
    grads.assign(logits.size(), Tensor());

    // Consensus soft target: mean of all heads' tempered probabilities.
    Tensor consensus;
    if (distill) {
      consensus = nn::SoftmaxWithTemperature(logits[0], kTemperature);
      for (int h = 1; h < num_heads; ++h) {
        consensus.AddInPlace(nn::SoftmaxWithTemperature(
            logits[static_cast<std::size_t>(h)], kTemperature));
      }
      consensus.Scale(1.0f / static_cast<Scalar>(num_heads));
    }

    double batch_loss = 0.0;
    for (int h = 0; h < num_heads; ++h) {
      const auto hu = static_cast<std::size_t>(h);
      batch_loss += nn::SoftmaxCrossEntropy(logits[hu], y, grads[hu]);
      if (distill) {
        Tensor kd_grad;
        batch_loss += kDistillWeight *
                      nn::DistillationKL(logits[hu], consensus, kTemperature,
                                         kd_grad);
        kd_grad.Scale(static_cast<Scalar>(kDistillWeight));
        grads[hu].AddInPlace(kd_grad);
      }
    }
    return batch_loss;
  };
  objective.backward = [&] { trunk.BackwardHeads(grads); };
  return fl::TrainLocal(trunk, shard, fl::LocalTrainOptions{}, rng,
                        objective);
}

}  // namespace mhbench::algorithms
