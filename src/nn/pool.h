// Pooling layers.
#pragma once

#include "nn/module.h"

namespace mhbench::nn {

// Average pooling over non-overlapping k x k windows of [N, C, H, W]
// (H and W must be divisible by k).
class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(int kernel);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  int kernel_;
  Shape cached_input_shape_;
};

// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool2d : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Shape cached_input_shape_;
};

// Global average pooling over the length axis: [N, C, L] -> [N, C].
class GlobalAvgPool1d : public Module {
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
