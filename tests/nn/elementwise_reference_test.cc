// Bit-exact pins of the elementwise layers on the client-training path.
//
// Each layer is compared, bit for bit, with a scalar reference kept here:
// the straightforward formulation the layer must reproduce (copy, then
// update in place; one channel or row at a time; GELU's derivative
// recomputing its tanh).  The rewritten layers make one pass into
// uninitialized storage and run several reductions side by side, which is
// only allowed while every element still sees the same operations in the
// same order on the same types.  The inputs mix in +-0.0, NaN, +-Inf and
// subnormals, and the extents are not multiples of any vector width.
//
// A NaN matches any NaN: when two NaNs meet in an add, IEEE 754 leaves open
// which one propagates, and the compiler may order a commutative add's
// operands either way, in the reference as in the layer.  Every other
// value, signed zeros and infinities included, must match bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "models/model_spec.h"
#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/linear.h"
#include "nn/norm.h"

namespace mhbench::nn {
namespace {

std::uint32_t Bits(Scalar v) { return std::bit_cast<std::uint32_t>(v); }

// Shape and every bit of every element (any NaN for a NaN); names the
// first differing index.
void ExpectSameBits(const Tensor& want, const Tensor& got, const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << what << ": element " << i << " want " << want[i] << " got "
        << got[i];
  }
}

constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
constexpr Scalar kSubnormal = std::numeric_limits<Scalar>::denorm_min() * 3;

// Gaussian values with edge cases planted at fixed strides: +-0.0 and
// subnormals always, NaN and +-Inf when `non_finite`.
Tensor EdgeCaseInput(const Shape& shape, Rng& rng, bool non_finite) {
  Tensor x = Tensor::Randn(shape, rng);
  const std::vector<Scalar> finite = {0.0f, -0.0f, kSubnormal, -kSubnormal};
  const std::vector<Scalar> all = {0.0f, -0.0f, kSubnormal, -kSubnormal,
                                   kNaN, -kNaN, kInf, -kInf};
  const std::vector<Scalar>& edge = non_finite ? all : finite;
  for (std::size_t i = 0; i < x.numel(); i += 5) {
    x[i] = edge[(i / 5) % edge.size()];
  }
  return x;
}

// --- Scalar references ----------------------------------------------------

Tensor RefReluForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) {
    if (v < 0) v = 0;
  }
  return y;
}

Tensor RefReluBackward(const Tensor& in, const Tensor& grad_out) {
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    if (in[i] <= 0) gx[i] = 0;
  }
  return gx;
}

constexpr double kGeluC = 0.7978845608028654;

double RefGeluValue(double x) {
  const double t = std::tanh(kGeluC * (x + 0.044715 * x * x * x));
  return 0.5 * x * (1.0 + t);
}

double RefGeluDeriv(double x) {
  const double u = kGeluC * (x + 0.044715 * x * x * x);
  const double t = std::tanh(u);
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
}

Tensor RefGeluForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) v = static_cast<Scalar>(RefGeluValue(v));
  return y;
}

Tensor RefGeluBackward(const Tensor& in, const Tensor& grad_out) {
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    gx[i] = static_cast<Scalar>(gx[i] * RefGeluDeriv(in[i]));
  }
  return gx;
}

Tensor RefTanhForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) v = std::tanh(v);
  return y;
}

Tensor RefTanhBackward(const Tensor& out, const Tensor& grad_out) {
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    gx[i] *= (1.0f - out[i] * out[i]);
  }
  return gx;
}

// Batch norm, one channel at a time, every element addressed through
// (b, ch, sp).
struct RefBatchNorm {
  Tensor gamma, beta, running_mean, running_var;
  Tensor dgamma, dbeta;
  Scalar momentum = 0.1f, eps = 1e-5f;
  Tensor xhat;
  std::vector<Scalar> stds;

  static void Split(const Shape& shape, int& n, int& c, int& s) {
    n = shape[0];
    c = shape[1];
    s = 1;
    for (std::size_t d = 2; d < shape.size(); ++d) s *= shape[d];
  }
  static std::size_t Offset(int c, int s, int b, int ch, int sp) {
    return (static_cast<std::size_t>(b) * c + ch) * s + sp;
  }

  static void Moments(const Tensor& x, int ch, Scalar& mean, Scalar& var) {
    int n, c, s;
    Split(x.shape(), n, c, s);
    const double m = static_cast<double>(n) * static_cast<double>(s);
    double sum = 0.0;
    for (int b = 0; b < n; ++b) {
      for (int sp = 0; sp < s; ++sp) sum += x[Offset(c, s, b, ch, sp)];
    }
    mean = static_cast<Scalar>(sum / m);
    double vsum = 0.0;
    for (int b = 0; b < n; ++b) {
      for (int sp = 0; sp < s; ++sp) {
        const double d = x[Offset(c, s, b, ch, sp)] - mean;
        vsum += d * d;
      }
    }
    var = static_cast<Scalar>(vsum / m);
  }

  Scalar Normalize(const Tensor& x, int ch, Scalar mean, Scalar var,
                   Tensor& y, Tensor* xh_out) const {
    int n, c, s;
    Split(x.shape(), n, c, s);
    const Scalar stdv = std::sqrt(var + eps);
    for (int b = 0; b < n; ++b) {
      for (int sp = 0; sp < s; ++sp) {
        const std::size_t o = Offset(c, s, b, ch, sp);
        const Scalar xh = (x[o] - mean) / stdv;
        if (xh_out != nullptr) (*xh_out)[o] = xh;
        y[o] = gamma[static_cast<std::size_t>(ch)] * xh +
               beta[static_cast<std::size_t>(ch)];
      }
    }
    return stdv;
  }

  Tensor Forward(const Tensor& x) {
    int n, c, s;
    Split(x.shape(), n, c, s);
    Tensor y(x.shape());
    xhat = Tensor(x.shape());
    stds.assign(static_cast<std::size_t>(c), 1.0f);
    for (int ch = 0; ch < c; ++ch) {
      const auto chu = static_cast<std::size_t>(ch);
      Scalar mean, var;
      Moments(x, ch, mean, var);
      running_mean[chu] =
          (1 - momentum) * running_mean[chu] + momentum * mean;
      running_var[chu] = (1 - momentum) * running_var[chu] + momentum * var;
      stds[chu] = Normalize(x, ch, mean, var, y, &xhat);
    }
    return y;
  }

  Tensor Infer(const Tensor& x, NormStats stats) const {
    int n, c, s;
    Split(x.shape(), n, c, s);
    Tensor y(x.shape());
    for (int ch = 0; ch < c; ++ch) {
      Scalar mean = running_mean[static_cast<std::size_t>(ch)];
      Scalar var = running_var[static_cast<std::size_t>(ch)];
      if (stats == NormStats::kBatch) Moments(x, ch, mean, var);
      Normalize(x, ch, mean, var, y, nullptr);
    }
    return y;
  }

  Tensor Backward(const Tensor& grad_out) {
    int n, c, s;
    Split(grad_out.shape(), n, c, s);
    const double m = static_cast<double>(n) * s;
    Tensor gx(grad_out.shape());
    for (int ch = 0; ch < c; ++ch) {
      const auto chu = static_cast<std::size_t>(ch);
      double sum_g = 0.0, sum_gxh = 0.0;
      for (int b = 0; b < n; ++b) {
        for (int sp = 0; sp < s; ++sp) {
          const std::size_t o = Offset(c, s, b, ch, sp);
          sum_g += grad_out[o];
          sum_gxh += static_cast<double>(grad_out[o]) * xhat[o];
        }
      }
      dgamma[chu] += static_cast<Scalar>(sum_gxh);
      dbeta[chu] += static_cast<Scalar>(sum_g);
      const Scalar g = gamma[chu];
      const Scalar inv_std = 1.0f / stds[chu];
      for (int b = 0; b < n; ++b) {
        for (int sp = 0; sp < s; ++sp) {
          const std::size_t o = Offset(c, s, b, ch, sp);
          const double term = m * grad_out[o] - sum_g - xhat[o] * sum_gxh;
          gx[o] = static_cast<Scalar>(g * inv_std * term / m);
        }
      }
    }
    return gx;
  }
};

// Layer norm over the last dimension, one row at a time.
struct RefLayerNorm {
  Tensor gamma, beta, dgamma, dbeta;
  Scalar eps = 1e-5f;
  Tensor xhat;
  std::vector<Scalar> inv_stds;

  Tensor Normalize(const Tensor& x, bool cache) {
    const int d = x.dim(x.ndim() - 1);
    const std::size_t rows = x.numel() / static_cast<std::size_t>(d);
    Tensor y(x.shape());
    if (cache) {
      xhat = Tensor(x.shape());
      inv_stds.assign(rows, 1.0f);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t o = r * static_cast<std::size_t>(d);
      double sum = 0.0;
      for (int j = 0; j < d; ++j) sum += x[o + j];
      const double mean = sum / d;
      double vsum = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = x[o + j] - mean;
        vsum += diff * diff;
      }
      const double inv_std = 1.0 / std::sqrt(vsum / d + eps);
      if (cache) inv_stds[r] = static_cast<Scalar>(inv_std);
      for (int j = 0; j < d; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        const Scalar xh = static_cast<Scalar>((x[o + j] - mean) * inv_std);
        if (cache) xhat[o + ju] = xh;
        y[o + ju] = gamma[ju] * xh + beta[ju];
      }
    }
    return y;
  }

  Tensor Backward(const Tensor& grad_out) {
    const int d = gamma.dim(0);
    const std::size_t rows = grad_out.numel() / static_cast<std::size_t>(d);
    Tensor gx(grad_out.shape());
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t o = r * static_cast<std::size_t>(d);
      double sum_g = 0.0, sum_gxh = 0.0;
      for (int j = 0; j < d; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        const double gh = static_cast<double>(grad_out[o + ju]) * gamma[ju];
        sum_g += gh;
        sum_gxh += gh * xhat[o + ju];
        dgamma[ju] += grad_out[o + ju] * xhat[o + ju];
        dbeta[ju] += grad_out[o + ju];
      }
      const double inv_std = inv_stds[r];
      for (int j = 0; j < d; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        const double gh = static_cast<double>(grad_out[o + ju]) * gamma[ju];
        gx[o + ju] = static_cast<Scalar>(
            inv_std * (gh - sum_g / d - xhat[o + ju] * sum_gxh / d));
      }
    }
    return gx;
  }
};

// --- Activations ------------------------------------------------------------

// Extents that are no multiple of 4, 8 or 16 floats.
const std::vector<Shape> kActivationShapes = {{1}, {3, 37}, {2, 5, 3, 3},
                                              {7, 13}};

TEST(ElementwiseReferenceTest, ReluMatchesScalarReference) {
  Rng rng(101);
  ReLU relu;
  for (const Shape& shape : kActivationShapes) {
    const Tensor x = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor g = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor want = RefReluForward(x);
    ExpectSameBits(want, relu.Infer(x, NormStats::kBatch), "Infer kBatch");
    ExpectSameBits(want, relu.Infer(x, NormStats::kRunning), "Infer kRunning");
    ExpectSameBits(want, relu.Forward(x), "Forward");
    ExpectSameBits(RefReluBackward(x, g), relu.Backward(g), "Backward");
  }
}

TEST(ElementwiseReferenceTest, ReluKeepsNegativeZeroAndNaN) {
  ReLU relu;
  const Tensor x = Tensor::FromVector({-0.0f, kNaN, -kNaN, -1.0f, 0.0f});
  // A select copies its input: -0.0 (not < 0) and both NaNs keep their
  // exact bits; -1 becomes +0.0.
  for (const Tensor& y : {relu.Infer(x, NormStats::kBatch), relu.Forward(x)}) {
    EXPECT_EQ(Bits(y[0]), Bits(-0.0f));
    EXPECT_EQ(Bits(y[1]), Bits(kNaN));
    EXPECT_EQ(Bits(y[2]), Bits(-kNaN));
    EXPECT_EQ(Bits(y[3]), 0u);
    EXPECT_EQ(Bits(y[4]), 0u);
  }
  // Gradient: -0.0 and +0.0 inputs mask (<= 0), NaN inputs pass g.
  const Tensor g = relu.Backward(Tensor::FromVector({1, 2, 3, 4, 5}));
  ExpectSameBits(Tensor::FromVector({0, 2, 3, 0, 0}), g, "mask");
}

TEST(ElementwiseReferenceTest, GeluMatchesScalarReference) {
  Rng rng(102);
  Gelu gelu;
  for (const Shape& shape : kActivationShapes) {
    const Tensor x = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor g = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor want = RefGeluForward(x);
    ExpectSameBits(want, gelu.Infer(x, NormStats::kBatch), "Infer kBatch");
    ExpectSameBits(want, gelu.Infer(x, NormStats::kRunning), "Infer kRunning");
    ExpectSameBits(want, gelu.Forward(x), "Forward");
    ExpectSameBits(RefGeluBackward(x, g), gelu.Backward(g), "Backward");
  }
}

TEST(ElementwiseReferenceTest, GeluBackwardUsesTheLatestForward) {
  // A larger Forward, then a smaller one: Backward must pair the second
  // input with its own cached tanh values.
  Rng rng(103);
  Gelu gelu;
  gelu.Forward(Tensor::Randn({9, 11}, rng));
  const Tensor x = Tensor::Randn({3, 5}, rng);
  const Tensor g = Tensor::Randn({3, 5}, rng);
  gelu.Forward(x);
  ExpectSameBits(RefGeluBackward(x, g), gelu.Backward(g), "Backward");
}

TEST(ElementwiseReferenceTest, TanhMatchesScalarReference) {
  Rng rng(104);
  Tanh tanh_layer;
  for (const Shape& shape : kActivationShapes) {
    const Tensor x = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor g = EdgeCaseInput(shape, rng, /*non_finite=*/true);
    const Tensor want = RefTanhForward(x);
    ExpectSameBits(want, tanh_layer.Infer(x, NormStats::kBatch), "Infer");
    ExpectSameBits(want, tanh_layer.Forward(x), "Forward");
    ExpectSameBits(RefTanhBackward(want, g), tanh_layer.Backward(g),
                   "Backward");
  }
}

// --- Normalization ----------------------------------------------------------

// Runs Forward, both Infers and Backward of a BatchNorm and its reference
// from the same parameters and non-zero starting gradients, twice (so the
// second step sees updated running statistics and reused caches).
void ExpectBatchNormMatches(const Shape& shape, Rng& rng, bool plant_nan) {
  const int c = shape[1];
  RefBatchNorm ref;
  ref.gamma = Tensor::Randn({c}, rng);
  ref.beta = Tensor::Randn({c}, rng);
  ref.running_mean = Tensor::Randn({c}, rng);
  ref.running_var = Tensor::Randn({c}, rng);
  for (auto& v : ref.running_var.data()) v = std::abs(v) + 0.5f;
  ref.dgamma = Tensor::Randn({c}, rng);
  ref.dbeta = Tensor::Randn({c}, rng);
  BatchNorm bn(ref.gamma, ref.beta, ref.running_mean, ref.running_var);
  bn.gamma().grad = ref.dgamma;
  bn.beta().grad = ref.dbeta;

  for (int step = 0; step < 2; ++step) {
    Tensor x = EdgeCaseInput(shape, rng, /*non_finite=*/false);
    if (plant_nan) {
      // Channel 0 of sample 0 gets a NaN, the last channel an Inf: both
      // channels' statistics go non-finite, the others stay exact.
      x[0] = kNaN;
      x[static_cast<std::size_t>(c - 1) * (x.numel() / shape[0] / c)] = kInf;
    }
    const Tensor g = EdgeCaseInput(shape, rng, /*non_finite=*/false);
    ExpectSameBits(ref.Infer(x, NormStats::kRunning),
                   bn.Infer(x, NormStats::kRunning), "Infer kRunning");
    ExpectSameBits(ref.Infer(x, NormStats::kBatch),
                   bn.Infer(x, NormStats::kBatch), "Infer kBatch");
    ExpectSameBits(ref.Forward(x), bn.Forward(x), "Forward");
    ExpectSameBits(ref.running_mean, bn.running_mean().value, "running_mean");
    ExpectSameBits(ref.running_var, bn.running_var().value, "running_var");
    ExpectSameBits(ref.Backward(g), bn.Backward(g), "Backward");
    ExpectSameBits(ref.dgamma, bn.gamma().grad, "gamma grad");
    ExpectSameBits(ref.dbeta, bn.beta().grad, "beta grad");
  }
}

TEST(ElementwiseReferenceTest, BatchNormMatchesScalarReference) {
  Rng rng(105);
  // Odd channel counts leave a tail after the channel blocks; rank 2, 3
  // and 4 inputs; spatial extents 1, 7 and 9.
  for (const Shape& shape :
       {Shape{5, 3}, Shape{3, 7, 7}, Shape{2, 5, 3, 3}, Shape{4, 8, 2, 2},
        Shape{1, 1, 13}}) {
    SCOPED_TRACE(ShapeToString(shape));
    ExpectBatchNormMatches(shape, rng, /*plant_nan=*/false);
  }
}

TEST(ElementwiseReferenceTest, BatchNormMatchesScalarReferenceOnNonFinite) {
  Rng rng(106);
  for (const Shape& shape : {Shape{3, 5, 7}, Shape{2, 4, 3, 3}}) {
    SCOPED_TRACE(ShapeToString(shape));
    ExpectBatchNormMatches(shape, rng, /*plant_nan=*/true);
  }
}

TEST(ElementwiseReferenceTest, LayerNormMatchesScalarReference) {
  Rng rng(107);
  for (const Shape& shape : {Shape{5, 7}, Shape{2, 3, 13}, Shape{9, 16}}) {
    SCOPED_TRACE(ShapeToString(shape));
    const int d = shape.back();
    RefLayerNorm ref;
    ref.gamma = Tensor::Randn({d}, rng);
    ref.beta = Tensor::Randn({d}, rng);
    ref.dgamma = Tensor::Randn({d}, rng);
    ref.dbeta = Tensor::Randn({d}, rng);
    LayerNorm ln(d);
    ln.gamma().value = ref.gamma;
    ln.beta().value = ref.beta;
    ln.gamma().grad = ref.dgamma;
    ln.beta().grad = ref.dbeta;
    for (bool plant : {false, true}) {
      Tensor x = EdgeCaseInput(shape, rng, /*non_finite=*/false);
      if (plant) {
        x[1] = kNaN;  // row 0
        x[x.numel() - 1] = -kInf;  // last row
      }
      const Tensor g = EdgeCaseInput(shape, rng, /*non_finite=*/false);
      ExpectSameBits(ref.Normalize(x, /*cache=*/false),
                     ln.Infer(x, NormStats::kBatch), "Infer kBatch");
      ExpectSameBits(ref.Normalize(x, /*cache=*/false),
                     ln.Infer(x, NormStats::kRunning), "Infer kRunning");
      ExpectSameBits(ref.Normalize(x, /*cache=*/true), ln.Forward(x),
                     "Forward");
      ExpectSameBits(ref.Backward(g), ln.Backward(g), "Backward");
      ExpectSameBits(ref.dgamma, ln.gamma().grad, "gamma grad");
      ExpectSameBits(ref.dbeta, ln.beta().grad, "beta grad");
    }
  }
}

// --- Composition ------------------------------------------------------------

// Two identically seeded [Linear, ReLU, Linear, Gelu] stacks: one run as a
// Sequential, the other module by module from a copy of the input (the
// reference).  Outputs, input gradients and parameter gradients agree
// bitwise, and the Sequential leaves its input untouched.
TEST(ElementwiseReferenceTest, SequentialMatchesModuleByModule) {
  auto make = [] {
    Rng init(108);
    auto net = std::make_unique<Sequential>();
    net->Add(std::make_unique<Linear>(7, 5, init));
    net->Add(std::make_unique<ReLU>());
    net->Add(std::make_unique<Linear>(5, 3, init));
    net->Add(std::make_unique<Gelu>());
    return net;
  };
  const auto seq = make();
  const auto ref = make();
  Rng rng(109);
  const Tensor x = EdgeCaseInput({6, 7}, rng, /*non_finite=*/false);
  const Tensor x_before = x;
  const Tensor g = Tensor::Randn({6, 3}, rng);

  Tensor want = x;
  for (std::size_t i = 0; i < ref->size(); ++i) {
    want = ref->at(i).Infer(want, NormStats::kBatch);
  }
  ExpectSameBits(want, seq->Infer(x, NormStats::kBatch), "Infer");
  want = x;
  for (std::size_t i = 0; i < ref->size(); ++i) want = ref->at(i).Forward(want);
  ExpectSameBits(want, seq->Forward(x), "Forward");
  Tensor gx = g;
  for (std::size_t i = ref->size(); i-- > 0;) gx = ref->at(i).Backward(gx);
  ExpectSameBits(gx, seq->Backward(g), "Backward");
  std::vector<NamedParam> want_params, got_params;
  ref->CollectParams("", want_params);
  seq->CollectParams("", got_params);
  ASSERT_EQ(want_params.size(), got_params.size());
  for (std::size_t i = 0; i < want_params.size(); ++i) {
    ExpectSameBits(want_params[i].param->grad, got_params[i].param->grad,
                   want_params[i].name.c_str());
  }
  ExpectSameBits(x_before, x, "input");
}

TEST(ElementwiseReferenceTest, EmptySequentialReturnsItsInput) {
  Sequential empty;
  Rng rng(110);
  const Tensor x = EdgeCaseInput({2, 9}, rng, /*non_finite=*/true);
  ExpectSameBits(x, empty.Forward(x), "Forward");
  ExpectSameBits(x, empty.Infer(x, NormStats::kRunning), "Infer");
  ExpectSameBits(x, empty.Backward(x), "Backward");
}

TEST(ElementwiseReferenceTest, PositionalEmbeddingMatchesCopyThenAdd) {
  Rng rng(111);
  models::PositionalEmbedding pos(5, 7, rng);
  const Tensor start_grad = Tensor::Randn({5, 7}, rng);
  pos.table().grad = start_grad;
  const Tensor x = EdgeCaseInput({3, 5, 7}, rng, /*non_finite=*/true);
  const Tensor g = EdgeCaseInput({3, 5, 7}, rng, /*non_finite=*/true);
  const Tensor& table = pos.table().value;

  Tensor want = x;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    want[i] += table[i % table.numel()];
  }
  ExpectSameBits(want, pos.Infer(x, NormStats::kBatch), "Infer");
  ExpectSameBits(want, pos.Forward(x), "Forward");
  Tensor want_grad = start_grad;
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < want_grad.numel(); ++i) {
      want_grad[i] += g[static_cast<std::size_t>(b) * want_grad.numel() + i];
    }
  }
  ExpectSameBits(g, pos.Backward(g), "Backward");
  ExpectSameBits(want_grad, pos.table().grad, "table grad");
}

}  // namespace
}  // namespace mhbench::nn
