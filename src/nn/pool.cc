#include "nn/pool.h"

#include "obs/profile.h"

namespace mhbench::nn {

Tensor GlobalAvgPool::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  return Infer(x, NormStats::kBatch);
}

Tensor GlobalAvgPool::Infer(const Tensor& x, NormStats /*stats*/) const {
  MHB_CHECK_GE(x.ndim(), 3);
  const int n = x.dim(0), c = x.dim(1);
  const std::size_t spatial = x.numel() / (static_cast<std::size_t>(n) * c);
  Tensor y({n, c});
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(spatial);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar* plane =
          px + (static_cast<std::size_t>(b) * c + ch) * spatial;
      Scalar acc = 0;
      for (std::size_t i = 0; i < spatial; ++i) acc += plane[i];
      py[static_cast<std::size_t>(b) * c + ch] = acc * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_shape_.empty());
  const int n = cached_input_shape_[0], c = cached_input_shape_[1];
  MHB_CHECK(grad_out.shape() == Shape({n, c}));
  Tensor gx(cached_input_shape_);
  const std::size_t spatial = gx.numel() / (static_cast<std::size_t>(n) * c);
  const Scalar* pg = grad_out.data().data();
  Scalar* pgx = gx.data().data();
  const Scalar inv = 1.0f / static_cast<Scalar>(spatial);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar g = pg[static_cast<std::size_t>(b) * c + ch] * inv;
      Scalar* plane = pgx + (static_cast<std::size_t>(b) * c + ch) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) plane[i] = g;
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
