// Normalization layers.
//
// BatchNorm normalizes over the channel dimension (dim 1) of [N, C],
// [N, C, L] or [N, C, H, W] inputs.  Forward (training) uses batch
// statistics and updates the running ones; Infer uses whichever NormStats
// names and updates nothing.
// In federated use the running statistics travel with the other parameters
// (HeteroFL's "static batch norm" corresponds to aggregating them like
// weights, which is what the param store does).
// LayerNorm normalizes the last dimension (transformer blocks).
#pragma once

#include "nn/module.h"

namespace mhbench::nn {

class BatchNorm : public Module {
 public:
  explicit BatchNorm(int channels, Scalar momentum = 0.1f,
                     Scalar eps = 1e-5f);
  // Constructs from externally provided affine + running tensors (all [C]).
  BatchNorm(Tensor gamma, Tensor beta, Tensor running_mean, Tensor running_var,
            Scalar momentum = 0.1f, Scalar eps = 1e-5f);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int channels() const { return gamma_.value.dim(0); }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  // Running statistics are exposed as (non-gradient) parameters so the FL
  // layer can ship and aggregate them; their grads stay zero.
  Parameter& running_mean() { return running_mean_; }
  Parameter& running_var() { return running_var_; }

 private:
  // Writes channel `ch` of y = gamma (x - mean) / std + beta (and of
  // `xhat`, when non-null); returns std = sqrt(var + eps).
  Scalar NormalizeChannel(const Tensor& x, int ch, Scalar mean, Scalar var,
                          Tensor& y, Tensor* xhat) const;

  Parameter gamma_, beta_;
  Parameter running_mean_, running_var_;
  Scalar momentum_, eps_;

  // Caches from the last Forward.
  Tensor cached_xhat_;
  std::vector<Scalar> cached_std_;  // per channel
  Shape cached_shape_;
};

class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim, Scalar eps = 1e-5f);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int dim() const { return gamma_.value.dim(0); }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  // y for `x`; also writes x-hat and per-row 1/std when the outputs are
  // non-null (Forward's caches).
  Tensor Normalize(const Tensor& x, Tensor* xhat, Scalar* inv_stds) const;

  Parameter gamma_, beta_;
  Scalar eps_;
  Tensor cached_xhat_;
  std::vector<Scalar> cached_inv_std_;  // per row
};

}  // namespace mhbench::nn
