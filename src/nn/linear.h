// Fully connected layer: y = x W^T + b, weight shape [out, in].
#pragma once

#include "core/rng.h"
#include "nn/module.h"

namespace mhbench::nn {

class Linear : public Module {
 public:
  // `rng` seeds Kaiming initialization; bias is zero-initialized.
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  // Constructs with externally provided weights (used by sub-model builders).
  Linear(Tensor weight, Tensor bias_or_empty);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int in_features() const { return weight_.value.dim(1); }
  int out_features() const { return weight_.value.dim(0); }
  bool has_bias() const { return !bias_.value.empty(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Tensor Apply(const Tensor& x) const;  // x W^T + b, shared by both passes

  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out] or empty
  Tensor cached_input_;
};

}  // namespace mhbench::nn
