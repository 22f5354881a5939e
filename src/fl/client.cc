#include "fl/client.h"

#include "core/error.h"
#include "data/loader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/profile.h"
#include "tensor/scratch.h"

namespace mhbench::fl {

std::vector<ClientAssignment> UniformCapacityAssignments(
    int num_clients, const std::vector<double>& capacities) {
  MHB_CHECK_GT(num_clients, 0);
  MHB_CHECK(!capacities.empty());
  std::vector<ClientAssignment> out(static_cast<std::size_t>(num_clients));
  for (int i = 0; i < num_clients; ++i) {
    out[static_cast<std::size_t>(i)].capacity =
        capacities[static_cast<std::size_t>(i) % capacities.size()];
  }
  return out;
}

double TrainLocal(nn::Module& model, const data::Dataset& shard,
                  const LocalTrainOptions& options, Rng& rng,
                  const BatchObjective& objective) {
  MHB_CHECK(!shard.empty());
  MHB_CHECK(objective.forward && objective.backward);
  obs::ProfileScope train_scope("local_train");
  nn::Sgd opt(model, {options.lr, options.momentum, options.weight_decay});

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (objective.before_epoch) objective.before_epoch(rng);
    data::BatchIterator batches(shard, options.batch_size, rng);
    Tensor x;
    std::vector<int> y;
    double loss_sum = 0.0;
    int batch_count = 0;
    while (batches.Next(x, y)) {
      // Rewind this thread's scratch arena: every kernel temporary from the
      // previous step is dead here, so the step reuses the same storage.
      kernels::ResetThreadScratch();
      opt.ZeroGrad();
      {
        obs::ProfileScope fwd_scope("forward");
        loss_sum += objective.forward(x, y);
      }
      {
        obs::ProfileScope bwd_scope("backward");
        objective.backward();
      }
      {
        obs::ProfileScope opt_scope("opt_step");
        if (options.grad_clip > 0) opt.ClipGradNorm(options.grad_clip);
        opt.Step();
      }
      ++batch_count;
    }
    last_epoch_loss = loss_sum / std::max(1, batch_count);
  }
  return last_epoch_loss;
}

double TrainLocal(nn::Module& model, const data::Dataset& shard,
                  const LocalTrainOptions& options, Rng& rng) {
  Tensor grad;
  BatchObjective cross_entropy;
  cross_entropy.forward = [&](const Tensor& x, const std::vector<int>& y) {
    return nn::SoftmaxCrossEntropy(model.Forward(x), y, grad);
  };
  cross_entropy.backward = [&] { model.Backward(grad); };
  return TrainLocal(model, shard, options, rng, cross_entropy);
}

}  // namespace mhbench::fl
