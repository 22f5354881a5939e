#include "nn/conv.h"

#include <cstddef>

#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace mhbench::nn {
namespace {

// [N*OH*OW, out_c] rows ordered (n, oy, ox) -> [N, out_c, OH, OW].
void RowsToNCHWInto(const Scalar* rows, int n, int oc, int oh, int ow,
                    Scalar* out) {
  std::size_t row = 0;
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x, ++row) {
        const Scalar* irow = rows + row * static_cast<std::size_t>(oc);
        for (int c = 0; c < oc; ++c) {
          out[((static_cast<std::size_t>(b) * oc + c) * oh + y) * ow + x] =
              irow[c];
        }
      }
    }
  }
}

// Inverse of RowsToNCHWInto.
void NCHWToRowsInto(const Tensor& t, Scalar* rows) {
  const int n = t.dim(0), c = t.dim(1), h = t.dim(2), w = t.dim(3);
  const Scalar* in = t.data().data();
  std::size_t row = 0;
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x, ++row) {
        Scalar* orow = rows + row * static_cast<std::size_t>(c);
        for (int ch = 0; ch < c; ++ch) {
          orow[ch] =
              in[((static_cast<std::size_t>(b) * c + ch) * h + y) * w + x];
        }
      }
    }
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

Conv2d::Geometry Conv2d::GeometryOf(const Tensor& x) const {
  MHB_CHECK_EQ(x.ndim(), 4);
  MHB_CHECK_EQ(x.dim(1), in_channels());
  Geometry g;
  g.n = x.dim(0);
  g.oh = (x.dim(2) + 2 * pad_h_ - kernel_h()) / stride_ + 1;
  g.ow = (x.dim(3) + 2 * pad_w_ - kernel_w()) / stride_ + 1;
  g.ickk = in_channels() * kernel_h() * kernel_w();
  return g;
}

Tensor Conv2d::FromColumns(const Geometry& g, const float* cols) const {
  const int oc = out_channels();
  // rows[N*OH*OW, out_c] = cols · W^T + bias, staged in the scratch arena;
  // the weight tensor [oc, ic, kh, kw] is read as a flat [oc, ickk] matrix.
  kernels::ScratchScope scratch;
  float* rows = scratch.Alloc(static_cast<std::size_t>(g.rows()) * oc);
  kernels::Gemm(false, true, g.rows(), oc, g.ickk, cols, g.ickk,
                weight_.value.data().data(), g.ickk, 0.0f, rows, oc,
                has_bias() ? bias_.value.data().data() : nullptr);
  Tensor out = Tensor::Uninitialized({g.n, oc, g.oh, g.ow});
  RowsToNCHWInto(rows, g.n, oc, g.oh, g.ow, out.data().data());
  return out;
}

Tensor Conv2d::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("conv2d_fwd");
  const Geometry g = GeometryOf(x);
  cached_input_shape_ = x.shape();
  // The column matrix lives in a member tensor so repeated steps with the
  // same geometry reuse the buffer; Backward reads it back.
  const int cols_shape[2] = {g.rows(), g.ickk};
  cached_cols_.ResizeUninitialized(cols_shape);
  ops::Im2ColInto(x, kernel_h(), kernel_w(), stride_, pad_h_, pad_w_,
                  cached_cols_.data().data());
  return FromColumns(g, cached_cols_.data().data());
}

Tensor Conv2d::Infer(const Tensor& x, NormStats /*stats*/) const {
  obs::ProfileScope profile_scope("conv2d_fwd");
  const Geometry g = GeometryOf(x);
  kernels::ScratchScope scratch;
  float* cols = scratch.Alloc(static_cast<std::size_t>(g.rows()) * g.ickk);
  ops::Im2ColInto(x, kernel_h(), kernel_w(), stride_, pad_h_, pad_w_, cols);
  return FromColumns(g, cols);
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("conv2d_bwd");
  MHB_CHECK(!cached_cols_.empty()) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 4);
  MHB_CHECK_EQ(grad_out.dim(1), out_channels());
  const int oc = out_channels();
  const int ickk = in_channels() * kernel_h() * kernel_w();
  const int rows_n = cached_cols_.dim(0);

  kernels::ScratchScope scratch;
  float* grows = scratch.Alloc(static_cast<std::size_t>(rows_n) * oc);
  NCHWToRowsInto(grad_out, grows);  // [N*OH*OW, out_c]

  // dW += G^T · cols, accumulated straight into the flat [oc, ickk] view of
  // the weight gradient (beta = 1).
  kernels::Gemm(true, false, oc, ickk, rows_n, grows, oc,
                cached_cols_.data().data(), ickk, 1.0f,
                weight_.grad.data().data(), ickk);
  if (has_bias()) {
    kernels::ColSumAcc(grows, rows_n, oc, oc, bias_.grad.data().data());
  }

  // dcols = G · W, then scatter back to the input shape.
  float* dcols = scratch.Alloc(static_cast<std::size_t>(rows_n) * ickk);
  kernels::Gemm(false, false, rows_n, ickk, oc, grows, oc,
                weight_.value.data().data(), ickk, 0.0f, dcols, ickk);
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

namespace {
Tensor Unsqueeze1dWeight(Tensor w) {
  MHB_CHECK_EQ(w.ndim(), 3);
  const int oc = w.dim(0), ic = w.dim(1), k = w.dim(2);
  return w.Reshape({oc, ic, 1, k});
}
}  // namespace

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias)
    : conv_(KaimingNormal({out_channels, in_channels, 1, kernel},
                          in_channels * kernel, rng),
            bias ? Tensor({out_channels}) : Tensor(), stride, /*pad_h=*/0,
            pad) {}

Conv1d::Conv1d(Tensor weight, Tensor bias_or_empty, int stride, int pad)
    : conv_(Unsqueeze1dWeight(std::move(weight)), std::move(bias_or_empty),
            stride, /*pad_h=*/0, pad) {}

namespace {
// [N, C, L] <-> [N, C, 1, L] views of Conv1d's input and output.
Tensor AddUnitHeight(const Tensor& x) {
  MHB_CHECK_EQ(x.ndim(), 3);  // [N, C, L]
  return x.Reshape({x.dim(0), x.dim(1), 1, x.dim(2)});
}
Tensor DropUnitHeight(const Tensor& y4) {
  return y4.Reshape({y4.dim(0), y4.dim(1), y4.dim(3)});
}
}  // namespace

Tensor Conv1d::Forward(const Tensor& x) {
  return DropUnitHeight(conv_.Forward(AddUnitHeight(x)));
}

Tensor Conv1d::Infer(const Tensor& x, NormStats stats) const {
  return DropUnitHeight(conv_.Infer(AddUnitHeight(x), stats));
}

Tensor Conv1d::Backward(const Tensor& grad_out) {
  MHB_CHECK_EQ(grad_out.ndim(), 3);
  const int n = grad_out.dim(0), c = grad_out.dim(1), l = grad_out.dim(2);
  Tensor gx4 = conv_.Backward(grad_out.Reshape({n, c, 1, l}));
  return gx4.Reshape({gx4.dim(0), gx4.dim(1), gx4.dim(3)});
}

void Conv1d::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  conv_.CollectParams(prefix, out);
}

}  // namespace mhbench::nn
