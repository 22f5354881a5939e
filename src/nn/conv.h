// Convolution layer (im2col based).
//
// Conv2d operates on [N, C, H, W], and on [N, C, L] as its unit-height case:
// a 1 x k kernel with pad_h 0 maps [N, C, L] to [N, out_c, L'] with no copy
// of the input or the gradient.  Weight layout is [out_c, in_c, kh, kw] so
// sub-model extraction can slice output/input channel dimensions directly.
//
// Layout.  The im2col matrix is channel-major, cols[ickk, R] with
// ickk = in_c*kh*kw and R = N*OH*OW (tensor/ops.h): each kernel tap's row is
// one contiguous run per (image, output row).  Forward is one GEMM,
// rows[out_c, R] = W[out_c, ickk] · cols, followed by one copy per
// (image, channel) plane into NCHW with the bias added.  Backward copies
// each gradient plane to G[out_c, R], then dW += G · cols^T, db += the row
// sums of G, and dcols = W^T · G scattered back by Col2ImAcc.
//
// Bits.  The results equal, bit for bit, those of the transposed row-major
// formulation (cols[R, ickk] · W^T): every output element is the same
// k-ascending sum of the same products over the same kKC blocks, and the
// micro-kernel's c += a·b is symmetric in a and b.  The bias is added last,
// as the fused GEMM epilogue does; dW contracts over r in (b, oy, ox) order;
// db sums each channel in r order; and Col2ImAcc adds each input element's
// contributions in (oy, ox) order.  tests/nn/conv_test.cc keeps the
// row-major algorithm as the reference.
#pragma once

#include "core/rng.h"
#include "nn/module.h"

namespace mhbench::nn {

class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng, bool bias = true);
  Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad);
  // Asymmetric padding variant (1 x k kernels pad only the length axis).
  Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad_h,
         int pad_w);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int in_channels() const { return weight_.value.dim(1); }
  int out_channels() const { return weight_.value.dim(0); }
  int kernel_h() const { return weight_.value.dim(2); }
  int kernel_w() const { return weight_.value.dim(3); }
  int stride() const { return stride_; }
  int pad_h() const { return pad_h_; }
  int pad_w() const { return pad_w_; }
  bool has_bias() const { return !bias_.value.empty(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // Output extents for an input of shape `x` (checked).
  struct Geometry {
    int n, oh, ow, ickk;
    bool unit_height;  // [N, C, L] input, so [N, out_c, L'] output
    int rows() const { return n * oh * ow; }
    Shape output(int oc) const {
      return unit_height ? Shape{n, oc, ow} : Shape{n, oc, oh, ow};
    }
  };
  Geometry GeometryOf(const Shape& x) const;
  // The output for the im2col matrix `cols` ([ickk, rows]) of an input.
  Tensor FromColumns(const Geometry& g, const float* cols) const;

  Parameter weight_;  // [out_c, in_c, kh, kw]
  Parameter bias_;    // [out_c] or empty
  int stride_ = 1;
  int pad_h_ = 0;
  int pad_w_ = 0;
  Tensor cached_cols_;      // im2col of last input, [ickk, rows]
  Shape cached_input_shape_;
};

}  // namespace mhbench::nn
