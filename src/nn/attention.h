// Multi-head self-attention over [N, L, D].
//
// Standard scaled dot-product attention with full Q/K/V/O projections.
// Width-heterogeneous transformer variants in this library keep D fixed and
// scale the FFN width, so attention itself is never sliced; it only needs a
// correct forward/backward.
#pragma once

#include "core/rng.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace mhbench::nn {

class MultiHeadSelfAttention : public Module {
 public:
  // `d_model` must be divisible by `heads`.
  MultiHeadSelfAttention(int d_model, int heads, Rng& rng);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int d_model() const { return d_model_; }
  int heads() const { return heads_; }

 private:
  int d_model_;
  int heads_;
  Linear wq_, wk_, wv_, wo_;

  // Forward's caches for Backward, which releases them: flattened
  // [N*L, D] projections and attention probabilities [N, H, L, L].
  Tensor cached_q_, cached_k_, cached_v_, cached_attn_;
  int cached_n_ = 0, cached_l_ = 0;
};

}  // namespace mhbench::nn
