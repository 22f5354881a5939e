// SGD with momentum and weight decay (norm parameters and running
// statistics exempt): the one optimizer, which every client's local
// training (fl/client.h) and Fed-ET's server distillation step with.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"

namespace mhbench::nn {

struct SgdOptions {
  double lr = 0.01;
  double momentum = 0.9;
  double weight_decay = 0.0;
  // Parameters whose name contains one of these substrings are skipped by
  // weight decay (norm affine parameters, running statistics).
  std::vector<std::string> no_decay = {"gamma", "beta", "running_"};
};

class Sgd {
 public:
  // Binds to the parameters of `module`; pointers must outlive this object.
  Sgd(Module& module, SgdOptions options);

  // Applies one step using accumulated gradients; does not zero them.
  void Step();

  void ZeroGrad();

  // Clips the global gradient norm to `max_norm` (no-op when below).
  void ClipGradNorm(double max_norm);

 private:
  std::vector<NamedParam> params_;
  std::vector<bool> is_running_stat_;
  std::vector<Tensor> velocity_;
  std::vector<bool> decay_enabled_;
  SgdOptions options_;
};

}  // namespace mhbench::nn
