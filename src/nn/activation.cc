#include "nn/activation.h"

#include <cmath>

namespace mhbench::nn {

Tensor ReLU::Forward(const Tensor& x) {
  cached_input_ = x;
  return Infer(x, NormStats::kBatch);
}

Tensor ReLU::Infer(const Tensor& x, NormStats /*stats*/) const {
  Tensor y = x;
  for (auto& v : y.data()) {
    if (v < 0) v = 0;
  }
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  MHB_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor gx = grad_out;
  auto in = cached_input_.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (in[i] <= 0) g[i] = 0;
  }
  return gx;
}

namespace {
// tanh-approximation GELU and its derivative.
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

double GeluValue(double x) {
  const double t = std::tanh(kGeluC * (x + 0.044715 * x * x * x));
  return 0.5 * x * (1.0 + t);
}

double GeluDeriv(double x) {
  const double u = kGeluC * (x + 0.044715 * x * x * x);
  const double t = std::tanh(u);
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}
}  // namespace

Tensor Gelu::Forward(const Tensor& x) {
  cached_input_ = x;
  return Infer(x, NormStats::kBatch);
}

Tensor Gelu::Infer(const Tensor& x, NormStats /*stats*/) const {
  Tensor y = x;
  for (auto& v : y.data()) v = static_cast<Scalar>(GeluValue(v));
  return y;
}

Tensor Gelu::Backward(const Tensor& grad_out) {
  MHB_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor gx = grad_out;
  auto in = cached_input_.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<Scalar>(g[i] * GeluDeriv(in[i]));
  }
  return gx;
}

Tensor Tanh::Forward(const Tensor& x) {
  Tensor y = Infer(x, NormStats::kBatch);
  cached_output_ = y;
  return y;
}

Tensor Tanh::Infer(const Tensor& x, NormStats /*stats*/) const {
  Tensor y = x;
  for (auto& v : y.data()) v = std::tanh(v);
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out) {
  MHB_CHECK(grad_out.shape() == cached_output_.shape());
  Tensor gx = grad_out;
  auto out = cached_output_.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= (1.0f - out[i] * out[i]);
  }
  return gx;
}

}  // namespace mhbench::nn
