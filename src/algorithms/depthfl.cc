#include "algorithms/depthfl.h"

#include "fl/client.h"
#include "nn/loss.h"

namespace mhbench::algorithms {

DepthFl::DepthFl(models::FamilyPtr family, double distill_weight,
                 double temperature, std::uint64_t seed)
    : WeightSharingAlgorithm(std::move(family), seed),
      distill_weight_(distill_weight),
      temperature_(temperature) {
  MHB_CHECK_GE(distill_weight, 0.0);
  MHB_CHECK_GT(temperature, 0.0);
}

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
  const bool distill = num_heads > 1 && distill_weight_ > 0;
  // Every head's loss gradient, from forward to backward.
  std::vector<Tensor> grads;
  fl::BatchObjective objective;
  objective.forward = [&](const Tensor& x, const std::vector<int>& y) {
    auto logits = trunk.ForwardHeads(x);
    grads.assign(logits.size(), Tensor());

    // Consensus soft target: mean of all heads' tempered probabilities.
    Tensor consensus;
    if (distill) {
      consensus = nn::SoftmaxWithTemperature(logits[0], temperature_);
      for (int h = 1; h < num_heads; ++h) {
        consensus.AddInPlace(nn::SoftmaxWithTemperature(
            logits[static_cast<std::size_t>(h)], temperature_));
      }
      consensus.Scale(1.0f / static_cast<Scalar>(num_heads));
    }

    double batch_loss = 0.0;
    for (int h = 0; h < num_heads; ++h) {
      const auto hu = static_cast<std::size_t>(h);
      batch_loss += nn::SoftmaxCrossEntropy(logits[hu], y, grads[hu]);
      if (distill) {
        Tensor kd_grad;
        batch_loss += distill_weight_ *
                      nn::DistillationKL(logits[hu], consensus, temperature_,
                                         kd_grad);
        kd_grad.Scale(static_cast<Scalar>(distill_weight_));
        grads[hu].AddInPlace(kd_grad);
      }
    }
    return batch_loss;
  };
  objective.backward = [&] { trunk.BackwardHeads(grads); };
  return fl::TrainLocal(trunk, shard, ctx_->local_options(last_round_), rng,
                        objective);
}

}  // namespace mhbench::algorithms
