#include "nn/activation.h"

#include <cmath>

namespace mhbench::nn {

// Each layer writes its output (and input gradient) in one pass into
// uninitialized storage: every element is overwritten, so nothing is
// zero-filled or copied first (DESIGN.md §5d, elementwise layers).

Tensor ReLU::Forward(const Tensor& x) {
  cached_input_ = x;
  return Infer(x, NormStats::kBatch);
}

Tensor ReLU::Infer(const Tensor& x, NormStats /*stats*/) const {
  // A select, not a branch, so the loop vectorizes; -0.0 and NaN pass
  // through unchanged.
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    py[i] = px[i] < 0 ? 0.0f : px[i];
  }
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_.empty()) << "Backward before Forward";
  MHB_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor gx = Tensor::Uninitialized(grad_out.shape());
  const Scalar* in = cached_input_.data().data();
  const Scalar* g = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  const std::size_t n = gx.numel();
  for (std::size_t i = 0; i < n; ++i) {
    // g[i] is loaded unconditionally so the select has no branch.
    const Scalar gi = g[i];
    pgx[i] = in[i] <= 0 ? 0.0f : gi;
  }
  cached_input_ = Tensor();
  return gx;
}

namespace {
// tanh-approximation GELU: y = 0.5 x (1 + t) with t = tanh(u),
// u = c (x + 0.044715 x^3).
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

double GeluTanh(double x) {
  return std::tanh(kGeluC * (x + 0.044715 * x * x * x));
}

double GeluValue(double x, double t) { return 0.5 * x * (1.0 + t); }

// dy/dx given t = GeluTanh(x).
double GeluDeriv(double x, double t) {
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}
}  // namespace

Tensor Gelu::Forward(const Tensor& x) {
  cached_input_ = x;
  cached_tanh_.resize(x.numel());
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const double t = GeluTanh(px[i]);
    cached_tanh_[i] = t;
    py[i] = static_cast<Scalar>(GeluValue(px[i], t));
  }
  return y;
}

Tensor Gelu::Infer(const Tensor& x, NormStats /*stats*/) const {
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    py[i] = static_cast<Scalar>(GeluValue(px[i], GeluTanh(px[i])));
  }
  return y;
}

Tensor Gelu::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_.empty()) << "Backward before Forward";
  MHB_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor gx = Tensor::Uninitialized(grad_out.shape());
  const Scalar* in = cached_input_.data().data();
  const Scalar* g = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    pgx[i] = static_cast<Scalar>(g[i] * GeluDeriv(in[i], cached_tanh_[i]));
  }
  cached_input_ = Tensor();
  std::vector<double>().swap(cached_tanh_);
  return gx;
}

Tensor Tanh::Forward(const Tensor& x) {
  Tensor y = Infer(x, NormStats::kBatch);
  cached_output_ = y;
  return y;
}

Tensor Tanh::Infer(const Tensor& x, NormStats /*stats*/) const {
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  for (std::size_t i = 0; i < x.numel(); ++i) py[i] = std::tanh(px[i]);
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_output_.empty()) << "Backward before Forward";
  MHB_CHECK(grad_out.shape() == cached_output_.shape());
  Tensor gx = Tensor::Uninitialized(grad_out.shape());
  const Scalar* out = cached_output_.data().data();
  const Scalar* g = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    pgx[i] = g[i] * (1.0f - out[i] * out[i]);
  }
  cached_output_ = Tensor();
  return gx;
}

}  // namespace mhbench::nn
