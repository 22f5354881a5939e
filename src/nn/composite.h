// Composite modules: Sequential, Residual (skip connection), Flatten.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace mhbench::nn {

class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> modules);

  // Appends a module; returns a reference to the appended module.
  Module& Add(ModulePtr m);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  std::size_t size() const { return modules_.size(); }
  Module& at(std::size_t i) { return *modules_.at(i); }

 private:
  std::vector<ModulePtr> modules_;
};

// y = body(x) + shortcut(x).  A null shortcut means identity (shapes of
// body output and input must then match).
class Residual : public Module {
 public:
  Residual(ModulePtr body, ModulePtr shortcut_or_null);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

 private:
  ModulePtr body_;
  ModulePtr shortcut_;  // may be null
};

// Runs every branch on the same input and concatenates the outputs along
// the channel dimension (dim 1).  All branch outputs must agree on every
// other dimension.  This is the Inception-block primitive.
class ConcatBranches : public Module {
 public:
  explicit ConcatBranches(std::vector<ModulePtr> branches);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  std::size_t num_branches() const { return branches_.size(); }

 private:
  std::vector<ModulePtr> branches_;
  std::vector<int> cached_channels_;  // per-branch channel extents
};

// Collapses all dims after the batch dim: [N, ...] -> [N, prod(...)].
class Flatten : public Module {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string&, std::vector<NamedParam>&) override {}

 private:
  Shape cached_input_shape_;
};

}  // namespace mhbench::nn
