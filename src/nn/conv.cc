#include "nn/conv.h"

#include <cstddef>
#include <cstring>
#include <utility>

#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace mhbench::nn {
namespace {

// Copies the (b, oc) output planes of the GEMM result rows[oc, n*plane]
// into NCHW `out`, adding bias[oc] when given.  The value is the same
// single rounding of (sum + bias) the fused GEMM epilogue performs.
void PlanesToNCHWInto(const float* rows, int n, int oc, std::size_t plane,
                      const float* bias, float* out) {
  const std::size_t ld = static_cast<std::size_t>(n) * plane;
  for (int b = 0; b < n; ++b) {
    for (int c = 0; c < oc; ++c, out += plane) {
      const float* src = rows + static_cast<std::size_t>(c) * ld +
                         static_cast<std::size_t>(b) * plane;
      if (bias == nullptr) {
        std::memcpy(out, src, plane * sizeof(float));
      } else {
        const float bc = bias[c];
        for (std::size_t i = 0; i < plane; ++i) out[i] = src[i] + bc;
      }
    }
  }
}

// Inverse of PlanesToNCHWInto (no bias): NCHW (or NCL) `t` ->
// rows[oc, n*plane].
void NCHWToPlanesInto(const Tensor& t, float* rows) {
  const int n = t.dim(0), oc = t.dim(1);
  const std::size_t plane = t.numel() / (static_cast<std::size_t>(n) * oc);
  const std::size_t ld = static_cast<std::size_t>(n) * plane;
  const float* in = t.data().data();
  for (int b = 0; b < n; ++b) {
    for (int c = 0; c < oc; ++c, in += plane) {
      std::memcpy(rows + static_cast<std::size_t>(c) * ld +
                      static_cast<std::size_t>(b) * plane,
                  in, plane * sizeof(float));
    }
  }
}

// out[c] += the sum of row c of rows[nrows, ncols], added in column order
// (the order a column sum over the transposed [ncols, nrows] rows uses).
// Full groups of eight rows keep eight independent add chains in flight.
void RowSumAcc(const float* rows, int nrows, int ncols, float* out) {
  constexpr int kLanes = 8;
  int c = 0;
  for (; c + kLanes <= nrows; c += kLanes) {
    const float* row = rows + static_cast<std::size_t>(c) * ncols;
    float sum[kLanes] = {};
    for (int j = 0; j < kLanes; ++j) sum[j] = out[c + j];
    for (int r = 0; r < ncols; ++r) {
      for (int j = 0; j < kLanes; ++j) {
        sum[j] += row[static_cast<std::size_t>(j) * ncols + r];
      }
    }
    for (int j = 0; j < kLanes; ++j) out[c + j] = sum[j];
  }
  for (; c < nrows; ++c) {
    const float* row = rows + static_cast<std::size_t>(c) * ncols;
    float sum = out[c];
    for (int r = 0; r < ncols; ++r) sum += row[r];
    out[c] = sum;
  }
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias)
    : stride_(stride), pad_h_(pad), pad_w_(pad) {
  MHB_CHECK_GT(in_channels, 0);
  MHB_CHECK_GT(out_channels, 0);
  MHB_CHECK_GT(kernel, 0);
  const int fan_in = in_channels * kernel * kernel;
  weight_ = Parameter(KaimingNormal(
      {out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) bias_ = Parameter(Tensor({out_channels}));
}

Conv2d::Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad)
    : Conv2d(std::move(weight), std::move(bias_or_empty), stride, pad, pad) {}

Conv2d::Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad_h,
               int pad_w)
    : stride_(stride), pad_h_(pad_h), pad_w_(pad_w) {
  MHB_CHECK_EQ(weight.ndim(), 4);
  if (!bias_or_empty.empty()) {
    MHB_CHECK_EQ(bias_or_empty.ndim(), 1);
    MHB_CHECK_EQ(bias_or_empty.dim(0), weight.dim(0));
    bias_ = Parameter(std::move(bias_or_empty));
  }
  weight_ = Parameter(std::move(weight));
}

Conv2d::Geometry Conv2d::GeometryOf(const Shape& x) const {
  MHB_CHECK(x.size() == 3 || x.size() == 4)
      << "conv input" << ShapeToString(x);
  MHB_CHECK_EQ(x[1], in_channels());
  Geometry g;
  g.n = x[0];
  g.unit_height = x.size() == 3;
  if (g.unit_height) {
    MHB_CHECK(kernel_h() == 1 && pad_h_ == 0)
        << "[N, C, L] input needs a 1 x k kernel with pad_h 0";
    g.oh = 1;
  } else {
    g.oh = (x[2] + 2 * pad_h_ - kernel_h()) / stride_ + 1;
  }
  g.ow = (x.back() + 2 * pad_w_ - kernel_w()) / stride_ + 1;
  g.ickk = in_channels() * kernel_h() * kernel_w();
  return g;
}

Tensor Conv2d::FromColumns(const Geometry& g, const float* cols) const {
  const int oc = out_channels();
  // rows[out_c, N*OH*OW] = W · cols, staged in the scratch arena; the
  // weight tensor [oc, ic, kh, kw] is read as a flat [oc, ickk] matrix.
  kernels::ScratchScope scratch;
  float* rows = scratch.Alloc(static_cast<std::size_t>(oc) * g.rows());
  kernels::Gemm(false, false, oc, g.rows(), g.ickk,
                weight_.value.data().data(), g.ickk, cols, g.rows(), 0.0f,
                rows, g.rows());
  Tensor out = Tensor::Uninitialized(g.output(oc));
  PlanesToNCHWInto(rows, g.n, oc, static_cast<std::size_t>(g.oh) * g.ow,
                   has_bias() ? bias_.value.data().data() : nullptr,
                   out.data().data());
  return out;
}

Tensor Conv2d::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("conv2d_fwd");
  const Geometry g = GeometryOf(x.shape());
  cached_input_shape_ = x.shape();
  // The column matrix lives in a member tensor so repeated steps with the
  // same geometry reuse the buffer; Backward reads it back.
  const int cols_shape[2] = {g.ickk, g.rows()};
  cached_cols_.ResizeUninitialized(cols_shape);
  ops::Im2ColInto(x, kernel_h(), kernel_w(), stride_, pad_h_, pad_w_,
                  cached_cols_.data().data());
  return FromColumns(g, cached_cols_.data().data());
}

Tensor Conv2d::Infer(const Tensor& x, NormStats /*stats*/) const {
  obs::ProfileScope profile_scope("conv2d_fwd");
  const Geometry g = GeometryOf(x.shape());
  kernels::ScratchScope scratch;
  float* cols = scratch.Alloc(static_cast<std::size_t>(g.ickk) * g.rows());
  ops::Im2ColInto(x, kernel_h(), kernel_w(), stride_, pad_h_, pad_w_, cols);
  return FromColumns(g, cols);
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("conv2d_bwd");
  MHB_CHECK(!cached_cols_.empty()) << "Backward before Forward";
  const Geometry g = GeometryOf(cached_input_shape_);
  const int oc = out_channels();
  MHB_CHECK(grad_out.shape() == g.output(oc))
      << "conv grad" << ShapeToString(grad_out.shape()) << "for input"
      << ShapeToString(cached_input_shape_);
  const int rows_n = g.rows();
  const float* cols = cached_cols_.data().data();

  kernels::ScratchScope scratch;
  float* grows = scratch.Alloc(static_cast<std::size_t>(oc) * rows_n);
  NCHWToPlanesInto(grad_out, grows);  // [out_c, N*OH*OW]

  // dW += G · cols^T, accumulated straight into the flat [oc, ickk] view of
  // the weight gradient (beta = 1).
  kernels::Gemm(false, true, oc, g.ickk, rows_n, grows, rows_n, cols, rows_n,
                1.0f, weight_.grad.data().data(), g.ickk);
  if (has_bias()) RowSumAcc(grows, oc, rows_n, bias_.grad.data().data());

  // dcols = W^T · G, then scatter back to the input shape.
  float* dcols = scratch.Alloc(static_cast<std::size_t>(g.ickk) * rows_n);
  kernels::Gemm(true, false, g.ickk, rows_n, oc, weight_.value.data().data(),
                g.ickk, grows, rows_n, 0.0f, dcols, rows_n);
  Tensor dx(cached_input_shape_);
  ops::Col2ImAcc(dcols, cached_input_shape_, kernel_h(), kernel_w(), stride_,
                 pad_h_, pad_w_, dx.data().data());
  return dx;
}

void Conv2d::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "weight"), &weight_});
  if (has_bias()) out.push_back({JoinName(prefix, "bias"), &bias_});
}

}  // namespace mhbench::nn
