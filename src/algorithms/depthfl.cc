#include "algorithms/depthfl.h"

#include "data/loader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

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

double DepthFl::TrainClientModel(models::BuiltModel& built, int /*client_id*/,
                                 const data::Dataset& shard, Rng& rng) {
  auto& trunk = built.trunk();
  const auto opts = ctx_->local_options(last_round_);
  nn::OptimizerOptions opt_opts;
  opt_opts.kind = opts.optimizer;
  opt_opts.lr = opts.lr;
  opt_opts.momentum = opts.momentum;
  opt_opts.weight_decay = opts.weight_decay;
  const auto sgd_ptr = nn::MakeOptimizer(trunk, opt_opts);
  nn::Optimizer& sgd = *sgd_ptr;

  const int num_heads = trunk.num_heads();
  double last_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    data::BatchIterator batches(shard, opts.batch_size, rng);
    Tensor x;
    std::vector<int> y;
    double loss_sum = 0.0;
    int batch_count = 0;
    while (batches.Next(x, y)) {
      sgd.ZeroGrad();
      auto logits = trunk.ForwardHeads(x);
      std::vector<Tensor> grads(logits.size());

      // Consensus soft target: mean of all heads' tempered probabilities.
      Tensor consensus;
      if (num_heads > 1 && distill_weight_ > 0) {
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
        Tensor ce_grad;
        batch_loss += nn::SoftmaxCrossEntropy(logits[hu], y, ce_grad);
        grads[hu] = std::move(ce_grad);
        if (num_heads > 1 && distill_weight_ > 0) {
          Tensor kd_grad;
          batch_loss += distill_weight_ *
                        nn::DistillationKL(logits[hu], consensus,
                                           temperature_, kd_grad);
          kd_grad.Scale(static_cast<Scalar>(distill_weight_));
          grads[hu].AddInPlace(kd_grad);
        }
      }
      trunk.BackwardHeads(grads);
      if (opts.grad_clip > 0) sgd.ClipGradNorm(opts.grad_clip);
      sgd.Step();
      loss_sum += batch_loss;
      ++batch_count;
    }
    last_loss = loss_sum / std::max(1, batch_count);
  }
  return last_loss;
}

}  // namespace mhbench::algorithms
