// Module interface for the training stack.
//
// The library uses explicit layer-wise backward passes (no tape autograd):
// each module caches what it needs during Forward and implements the exact
// adjoint in Backward, accumulating parameter gradients.  This keeps the
// stack small, deterministic and easy to verify against numerical gradients
// (see tests/nn/gradient_check_test.cc).
//
// Two passes, split by what they may touch:
//   - Forward is the training pass.  It normalizes with batch statistics,
//     updates BatchNorm running statistics and caches activations for
//     Backward, so one model serves one thread at a time.  A module holds
//     those activations only from Forward to its Backward, which releases
//     them, so an idle model holds no activations.
//   - Infer is the evaluation pass.  It is const: it writes no member (no
//     cache, no running statistic) and takes its temporaries from the
//     calling thread's scratch arena or fresh tensors, so any number of
//     threads may run it on one shared model.  Infer(x, NormStats::kBatch)
//     returns the bytes Forward(x) returns.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace mhbench::nn {

// A trainable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Parameter() = default;

  void ZeroGrad() {
    if (!grad.empty()) grad.Fill(0.0f);
  }
};

// A parameter with its hierarchical name ("block2/conv1/weight").
struct NamedParam {
  std::string name;
  Parameter* param = nullptr;
};

// Which statistics BatchNorm normalizes with in Infer.
enum class NormStats {
  kRunning,  // the running statistics (classic eval mode)
  kBatch,    // the batch's own statistics, as in training (static BN eval)
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Training pass: computes the output for `x` with batch statistics,
  // updating running statistics and caching what Backward needs.
  virtual Tensor Forward(const Tensor& x) = 0;

  // Evaluation pass: the output for `x`, normalized per `stats`.  Writes
  // no member, so concurrent calls on one module are safe.
  virtual Tensor Infer(const Tensor& x, NormStats stats) const = 0;

  // Propagates `grad_out` (gradient of the loss w.r.t. this module's last
  // output) back to the input, accumulating parameter gradients, and
  // releases Forward's activation caches.  Must be called once per Forward,
  // with matching shapes: a Backward with no Forward since the last one
  // throws "Backward before Forward".
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // Appends this module's parameters, prefixing names with `prefix`.
  virtual void CollectParams(const std::string& prefix,
                             std::vector<NamedParam>& out) = 0;

  // Zeroes all parameter gradients in this subtree.
  void ZeroGrad();

  // Total number of scalar parameters in this subtree.
  std::size_t NumParams();
};

using ModulePtr = std::unique_ptr<Module>;

// Joins two name components with '/'.
std::string JoinName(const std::string& prefix, const std::string& name);

}  // namespace mhbench::nn
