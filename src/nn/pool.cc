#include "nn/pool.h"

#include "obs/profile.h"

namespace mhbench::nn {

Tensor GlobalAvgPool2d::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  return Infer(x, NormStats::kBatch);
}

Tensor GlobalAvgPool2d::Infer(const Tensor& x, NormStats /*stats*/) const {
  MHB_CHECK_EQ(x.ndim(), 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(h * w);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar* plane =
          px + (static_cast<std::size_t>(b) * c + ch) * h * w;
      Scalar acc = 0;
      for (int i = 0; i < h * w; ++i) acc += plane[i];
      py[static_cast<std::size_t>(b) * c + ch] = acc * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_shape_.empty());
  const int n = cached_input_shape_[0], c = cached_input_shape_[1],
            h = cached_input_shape_[2], w = cached_input_shape_[3];
  MHB_CHECK(grad_out.shape() == Shape({n, c}));
  Tensor gx(cached_input_shape_);
  const Scalar* pg = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(h * w);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar g = pg[static_cast<std::size_t>(b) * c + ch] * inv;
      Scalar* plane = pgx + (static_cast<std::size_t>(b) * c + ch) * h * w;
      for (int i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return gx;
}

Tensor GlobalAvgPool1d::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  return Infer(x, NormStats::kBatch);
}

Tensor GlobalAvgPool1d::Infer(const Tensor& x, NormStats /*stats*/) const {
  MHB_CHECK_EQ(x.ndim(), 3);
  const int n = x.dim(0), c = x.dim(1), l = x.dim(2);
  Tensor y({n, c});
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(l);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar* row = px + (static_cast<std::size_t>(b) * c + ch) * l;
      Scalar acc = 0;
      for (int i = 0; i < l; ++i) acc += row[i];
      py[static_cast<std::size_t>(b) * c + ch] = acc * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool1d::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_shape_.empty());
  const int n = cached_input_shape_[0], c = cached_input_shape_[1],
            l = cached_input_shape_[2];
  MHB_CHECK(grad_out.shape() == Shape({n, c}));
  Tensor gx(cached_input_shape_);
  const Scalar* pg = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(l);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar g = pg[static_cast<std::size_t>(b) * c + ch] * inv;
      Scalar* row = pgx + (static_cast<std::size_t>(b) * c + ch) * l;
      for (int i = 0; i < l; ++i) row[i] = g;
    }
  }
  return gx;
}

Tensor MeanPoolSeq::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  return Infer(x, NormStats::kBatch);
}

Tensor MeanPoolSeq::Infer(const Tensor& x, NormStats /*stats*/) const {
  MHB_CHECK_EQ(x.ndim(), 3);  // [N, L, D]
  const int n = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor y({n, d});
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(l);
  for (int b = 0; b < n; ++b) {
    Scalar* yr = py + static_cast<std::size_t>(b) * d;
    for (int t = 0; t < l; ++t) {
      const Scalar* xr =
          px + (static_cast<std::size_t>(b) * l + t) * d;
      for (int j = 0; j < d; ++j) yr[j] += xr[j];
    }
    for (int j = 0; j < d; ++j) yr[j] *= inv;
  }
  return y;
}

Tensor MeanPoolSeq::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_shape_.empty());
  const int n = cached_input_shape_[0], l = cached_input_shape_[1],
            d = cached_input_shape_[2];
  MHB_CHECK(grad_out.shape() == Shape({n, d}));
  Tensor gx(cached_input_shape_);
  const Scalar* pg = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(l);
  for (int b = 0; b < n; ++b) {
    const Scalar* gr = pg + static_cast<std::size_t>(b) * d;
    for (int t = 0; t < l; ++t) {
      Scalar* xr = pgx + (static_cast<std::size_t>(b) * l + t) * d;
      for (int j = 0; j < d; ++j) xr[j] = gr[j] * inv;
    }
  }
  return gx;
}

}  // namespace mhbench::nn
