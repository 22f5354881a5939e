#include "algorithms/fedepth.h"

#include "fl/client.h"
#include "nn/loss.h"

namespace mhbench::algorithms {

double FeDepth::TrainClientModel(models::BuiltModel& built,
                                 const data::Dataset& shard, Rng& rng) {
  auto& trunk = built.trunk();
  const int total = trunk.num_blocks();
  // Segment-wise training: roughly half the kept blocks update per epoch
  // (FeDepth fits backward memory by splitting the net into segments).
  const int active = std::max(1, (total + 1) / 2);

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

  // The active segment rotates per batch from a random start each epoch,
  // so every segment is trained each epoch while only one segment's
  // activations need gradients at a time (the memory saving).
  int start = 0;
  Tensor grad;
  fl::BatchObjective objective;
  objective.before_epoch = [&](Rng& epoch_rng) {
    start = static_cast<int>(
        epoch_rng.UniformInt(static_cast<std::uint64_t>(total)));
  };
  objective.forward = [&](const Tensor& x, const std::vector<int>& y) {
    return nn::SoftmaxCrossEntropy(trunk.Forward(x), y, grad);
  };
  objective.backward = [&] {
    trunk.Backward(grad);
    // Freeze blocks outside the active segment by clearing gradients.
    for (auto& p : params) {
      if (!in_window(p.name, start)) p.param->ZeroGrad();
    }
    start = (start + active) % total;
  };
  return fl::TrainLocal(trunk, shard, fl::LocalTrainOptions{}, rng,
                        objective);
}

}  // namespace mhbench::algorithms
