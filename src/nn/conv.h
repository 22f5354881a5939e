// Convolution layers (im2col based).
//
// Conv2d operates on [N, C, H, W]; Conv1d on [N, C, L] (implemented as a
// height-1 Conv2d).  Weight layout is [out_c, in_c, kh, kw] so sub-model
// extraction can slice output/input channel dimensions directly.
#pragma once

#include "core/rng.h"
#include "nn/module.h"

namespace mhbench::nn {

class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng, bool bias = true);
  Conv2d(Tensor weight, Tensor bias_or_empty, int stride, int pad);
  // Asymmetric padding variant (used by Conv1d to pad only the length axis).
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
  // Output extents for input `x` (checked).
  struct Geometry {
    int n, oh, ow, ickk;
    int rows() const { return n * oh * ow; }
  };
  Geometry GeometryOf(const Tensor& x) const;
  // The output for the im2col matrix `cols` ([rows, ickk]) of an input.
  Tensor FromColumns(const Geometry& g, const float* cols) const;

  Parameter weight_;  // [out_c, in_c, kh, kw]
  Parameter bias_;    // [out_c] or empty
  int stride_ = 1;
  int pad_h_ = 0;
  int pad_w_ = 0;
  Tensor cached_cols_;      // im2col of last input
  Shape cached_input_shape_;
};

// 1-D convolution over [N, C, L]; wraps Conv2d by inserting a unit height.
class Conv1d : public Module {
 public:
  Conv1d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng, bool bias = true);
  Conv1d(Tensor weight /*[out_c, in_c, k]*/, Tensor bias_or_empty, int stride,
         int pad);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int in_channels() const { return conv_.in_channels(); }
  int out_channels() const { return conv_.out_channels(); }

 private:
  Conv2d conv_;
};

}  // namespace mhbench::nn
