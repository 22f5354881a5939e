// Elementwise activations (shape-preserving, any rank).  Each holds its
// Forward cache until the matching Backward, which releases it.
#pragma once

#include "nn/module.h"

namespace mhbench::nn {

class ReLU : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Tensor cached_input_;
};

class Gelu : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Tensor cached_input_;
  // tanh(u) per element from Forward; Backward reuses it.
  std::vector<double> cached_tanh_;
};

class Tanh : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Tensor cached_output_;
};

}  // namespace mhbench::nn
