#include "algorithms/fedepth.h"

#include "data/loader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace mhbench::algorithms {

double FeDepth::TrainClientModel(models::BuiltModel& built, int /*client_id*/,
                                 const data::Dataset& shard, Rng& rng) {
  auto& trunk = built.trunk();
  const auto opts = ctx_->local_options(last_round_);
  const int total = trunk.num_blocks();
  // Segment-wise training: roughly half the kept blocks update per epoch
  // (FeDepth fits backward memory by splitting the net into segments).
  const int active = std::max(1, (total + 1) / 2);

  nn::OptimizerOptions opt_opts;
  opt_opts.kind = opts.optimizer;
  opt_opts.lr = opts.lr;
  opt_opts.momentum = opts.momentum;
  opt_opts.weight_decay = opts.weight_decay;
  const auto sgd_ptr = nn::MakeOptimizer(trunk, opt_opts);
  nn::Optimizer& sgd = *sgd_ptr;

  // Stem and head always train; block windows rotate.
  auto in_window = [&](const std::string& name, int start) {
    if (name.rfind("stem/", 0) == 0) return true;
    if (name.rfind("head", 0) == 0) return true;
    for (int k = 0; k < active; ++k) {
      const int b = (start + k) % total;
      if (name.rfind(trunk.block_name(b) + "/", 0) == 0) return true;
    }
    return false;
  };

  std::vector<nn::NamedParam> params;
  trunk.CollectParams("", params);

  double last_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    // The active segment rotates per batch, so every segment is trained
    // each epoch while only one segment's activations need gradients at a
    // time (the memory saving).
    int start =
        static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(total)));
    data::BatchIterator batches(shard, opts.batch_size, rng);
    Tensor x;
    std::vector<int> y;
    double loss_sum = 0.0;
    int batch_count = 0;
    while (batches.Next(x, y)) {
      sgd.ZeroGrad();
      const Tensor logits = trunk.Forward(x);
      Tensor grad;
      loss_sum += nn::SoftmaxCrossEntropy(logits, y, grad);
      trunk.Backward(grad);
      // Freeze blocks outside the active segment by clearing gradients.
      for (auto& p : params) {
        if (!in_window(p.name, start)) p.param->ZeroGrad();
      }
      if (opts.grad_clip > 0) sgd.ClipGradNorm(opts.grad_clip);
      sgd.Step();
      start = (start + active) % total;
      ++batch_count;
    }
    last_loss = loss_sum / std::max(1, batch_count);
  }
  return last_loss;
}

}  // namespace mhbench::algorithms
