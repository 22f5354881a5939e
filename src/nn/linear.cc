#include "nn/linear.h"

#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mhbench::nn {

Linear::Linear(int in_features, int out_features, Rng& rng, bool bias) {
  MHB_CHECK_GT(in_features, 0);
  MHB_CHECK_GT(out_features, 0);
  weight_ = Parameter(
      KaimingNormal({out_features, in_features}, in_features, rng));
  if (bias) bias_ = Parameter(Tensor({out_features}));
}

Linear::Linear(Tensor weight, Tensor bias_or_empty) {
  MHB_CHECK_EQ(weight.ndim(), 2);
  if (!bias_or_empty.empty()) {
    MHB_CHECK_EQ(bias_or_empty.ndim(), 1);
    MHB_CHECK_EQ(bias_or_empty.dim(0), weight.dim(0));
    bias_ = Parameter(std::move(bias_or_empty));
  }
  weight_ = Parameter(std::move(weight));
}

Tensor Linear::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("linear_fwd");
  cached_input_ = x;
  return Apply(x);
}

Tensor Linear::Infer(const Tensor& x, NormStats /*stats*/) const {
  obs::ProfileScope profile_scope("linear_fwd");
  return Apply(x);
}

Tensor Linear::Apply(const Tensor& x) const {
  MHB_CHECK_EQ(x.ndim(), 2);
  MHB_CHECK_EQ(x.dim(1), in_features());
  const int n = x.dim(0), in = in_features(), out = out_features();
  // Y[n, out] = X · W^T + bias, with the bias fused into the GEMM epilogue.
  Tensor y = Tensor::Uninitialized({n, out});
  kernels::Gemm(false, true, n, out, in, x.data().data(), in,
                weight_.value.data().data(), in, 0.0f, y.data().data(), out,
                has_bias() ? bias_.value.data().data() : nullptr);
  return y;
}

Tensor Linear::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("linear_bwd");
  MHB_CHECK(!cached_input_.empty()) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 2);
  MHB_CHECK_EQ(grad_out.dim(0), cached_input_.dim(0));
  MHB_CHECK_EQ(grad_out.dim(1), out_features());
  const int n = grad_out.dim(0), in = in_features(), out = out_features();
  // dW += dY^T · X, accumulated directly into the gradient (beta = 1).
  kernels::Gemm(true, false, out, in, n, grad_out.data().data(), out,
                cached_input_.data().data(), in, 1.0f,
                weight_.grad.data().data(), in);
  if (has_bias()) {
    kernels::ColSumAcc(grad_out.data().data(), n, out, out,
                       bias_.grad.data().data());
  }
  // dX = dY · W.
  Tensor dx = Tensor::Uninitialized({n, in});
  kernels::Gemm(false, false, n, in, out, grad_out.data().data(), out,
                weight_.value.data().data(), in, 0.0f, dx.data().data(), in);
  cached_input_ = Tensor();
  return dx;
}

void Linear::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "weight"), &weight_});
  if (has_bias()) out.push_back({JoinName(prefix, "bias"), &bias_});
}

}  // namespace mhbench::nn
