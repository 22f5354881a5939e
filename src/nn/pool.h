// Pooling layers.
#pragma once

#include "nn/module.h"

namespace mhbench::nn {

// Global average pooling over every trailing dim: [N, C, ...] -> [N, C]
// (images [N, C, H, W], sensor windows [N, C, L]).
class GlobalAvgPool : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Shape cached_input_shape_;
};

// Mean over the sequence axis: [N, L, D] -> [N, D] (text classifiers).
class MeanPoolSeq : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Shape cached_input_shape_;
};

}  // namespace mhbench::nn
