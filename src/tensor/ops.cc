#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "tensor/gemm.h"

namespace mhbench::ops {
namespace {

// Iterates over every combination of the given per-dimension index lists in
// contiguous blocks.  The longest suffix of unindexed dimensions is folded
// into one block of `block` elements that is contiguous in both the small
// and the large tensor, so GatherDims runs one memcpy and
// AppendSelectedRuns emits one coordinate run per block instead of a
// lambda call per element.  The callback receives (small_off, large_off,
// block).
template <typename Fn>
void ForEachSelectedBlock(const Shape& full_shape, const DimIndices& index,
                          Fn&& fn) {
  const int nd = static_cast<int>(full_shape.size());
  MHB_CHECK_EQ(static_cast<int>(index.size()), nd);
  if (ShapeNumel(full_shape) == 0) return;

  // Contiguous tail: trailing dims kept whole.
  int lead = nd;
  std::size_t block = 1;
  while (lead > 0 && !index[static_cast<std::size_t>(lead - 1)].has_value()) {
    --lead;
    block *= static_cast<std::size_t>(full_shape[static_cast<std::size_t>(lead)]);
  }

  // Effective per-dimension index lists for the leading dims (identity when
  // absent), validated against the large tensor's extents.
  std::vector<std::vector<int>> idx(static_cast<std::size_t>(lead));
  for (int d = 0; d < lead; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (index[du].has_value()) {
      idx[du] = *index[du];
      for (int i : idx[du]) {
        MHB_CHECK(i >= 0 && i < full_shape[du])
            << "index" << i << "out of range for dim" << d << "of"
            << ShapeToString(full_shape);
      }
    } else {
      idx[du].resize(static_cast<std::size_t>(full_shape[du]));
      for (int i = 0; i < full_shape[du]; ++i) {
        idx[du][static_cast<std::size_t>(i)] = i;
      }
    }
  }

  // Strides of the large tensor over the leading dims, in units of `block`.
  std::vector<std::size_t> stride(static_cast<std::size_t>(lead), 1);
  for (int d = lead - 2; d >= 0; --d) {
    const auto du = static_cast<std::size_t>(d);
    stride[du] = stride[du + 1] * static_cast<std::size_t>(full_shape[du + 1]);
  }

  if (lead == 0) {
    fn(std::size_t{0}, std::size_t{0}, block);
    return;
  }

  // Odometer over the small tensor's leading coordinates.
  std::vector<std::size_t> pos(static_cast<std::size_t>(lead), 0);
  std::size_t small_off = 0;
  for (;;) {
    std::size_t large_off = 0;
    for (int d = 0; d < lead; ++d) {
      const auto du = static_cast<std::size_t>(d);
      large_off += stride[du] * static_cast<std::size_t>(idx[du][pos[du]]);
    }
    fn(small_off, large_off * block, block);
    small_off += block;
    int d = lead - 1;
    for (; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      if (++pos[du] < idx[du].size()) break;
      pos[du] = 0;
    }
    if (d < 0) break;
  }
}

Shape SelectedShape(const Shape& full_shape, const DimIndices& index) {
  MHB_CHECK_EQ(index.size(), full_shape.size());
  Shape out = full_shape;
  for (std::size_t d = 0; d < index.size(); ++d) {
    if (index[d].has_value()) {
      MHB_CHECK(!index[d]->empty()) << "empty index list for dim" << d;
      out[d] = static_cast<int>(index[d]->size());
    }
  }
  return out;
}

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MHB_CHECK_EQ(k, b.dim(0));
  Tensor c = Tensor::Uninitialized({m, n});
  kernels::Gemm(false, false, m, n, k, a.data().data(), k, b.data().data(),
                n, 0.0f, c.data().data(), n);
  return c;
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  MHB_CHECK_EQ(k, b.dim(1));
  Tensor c = Tensor::Uninitialized({m, n});
  kernels::Gemm(false, true, m, n, k, a.data().data(), k, b.data().data(), k,
                0.0f, c.data().data(), n);
  return c;
}

Tensor MatmulTransA(const Tensor& a, const Tensor& b) {
  MHB_CHECK_EQ(a.ndim(), 2);
  MHB_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MHB_CHECK_EQ(m, b.dim(0));
  Tensor c = Tensor::Uninitialized({k, n});
  kernels::Gemm(true, false, k, n, m, a.data().data(), k, b.data().data(), n,
                0.0f, c.data().data(), n);
  return c;
}

Tensor Transpose2d(const Tensor& a) {
  MHB_CHECK_EQ(a.ndim(), 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Uninitialized({n, m});
  const Scalar* in = a.data().data();
  Scalar* o = out.data().data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      o[static_cast<std::size_t>(j) * m + i] =
          in[static_cast<std::size_t>(i) * n + j];
    }
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out = Tensor::Uninitialized({n, c});
  for (int i = 0; i < n; ++i) {
    const Scalar* row = logits.data().data() + static_cast<std::size_t>(i) * c;
    Scalar* orow = out.data().data() + static_cast<std::size_t>(i) * c;
    Scalar mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const Scalar inv = static_cast<Scalar>(1.0 / sum);
    for (int j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out = Tensor::Uninitialized({n, c});
  for (int i = 0; i < n; ++i) {
    const Scalar* row = logits.data().data() + static_cast<std::size_t>(i) * c;
    Scalar* orow = out.data().data() + static_cast<std::size_t>(i) * c;
    Scalar mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < c; ++j) sum += std::exp(row[j] - mx);
    const Scalar lse = mx + static_cast<Scalar>(std::log(sum));
    for (int j = 0; j < c; ++j) orow[j] = row[j] - lse;
  }
  return out;
}

std::vector<int> ArgmaxRows(const Tensor& t) {
  MHB_CHECK_EQ(t.ndim(), 2);
  const int n = t.dim(0), c = t.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Scalar* row = t.data().data() + static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

namespace {

// Along one axis: the output positions [lo, hi) at which kernel offset k
// reads input position o*stride + k - pad inside [0, w); the others read
// padding.
struct InteriorSpan {
  int lo, hi;
};
InteriorSpan InteriorOf(int k, int w, int ow, int stride, int pad) {
  const int first = pad - k;      // o*stride >= first
  const int limit = w + pad - k;  // o*stride < limit
  const int lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  const int hi = limit <= 0 ? 0 : std::min(ow, (limit + stride - 1) / stride);
  return {std::min(lo, hi), hi};
}

int OutExtent(int in, int pad, int k, int stride) {
  return (in + 2 * pad - k) / stride + 1;
}

// [N, C, H, W], or [N, C, L] read as the unit-height case H = 1.
struct ImageDims {
  int n, c, h, w;
};
ImageDims ImageDimsOf(const Shape& s) {
  MHB_CHECK(s.size() == 3 || s.size() == 4)
      << "image input must be [N, C, H, W] or [N, C, L], got"
      << ShapeToString(s);
  if (s.size() == 3) return {s[0], s[1], 1, s[2]};
  return {s[0], s[1], s[2], s[3]};
}

}  // namespace

void Im2ColInto(const Tensor& input, int kh, int kw, int stride, int pad_h,
                int pad_w, float* out) {
  MHB_CHECK_GT(stride, 0);
  MHB_CHECK_GE(pad_h, 0);
  MHB_CHECK_GE(pad_w, 0);
  const auto [n, c, h, w] = ImageDimsOf(input.shape());
  const int oh = OutExtent(h, pad_h, kh, stride);
  const int ow = OutExtent(w, pad_w, kw, stride);
  MHB_CHECK_GT(oh, 0);
  MHB_CHECK_GT(ow, 0);
  const Scalar* in = input.data().data();
  const std::size_t in_cs = static_cast<std::size_t>(h) * w;
  const std::size_t out_cs = static_cast<std::size_t>(oh) * ow;
  const std::size_t ncols = static_cast<std::size_t>(n) * out_cs;
  // At stride 1 with ow == w, output rows advance through the input at the
  // input's own row pitch, so one tap's interior rows are a single
  // contiguous copy; the edge columns it fills from neighbouring rows are
  // then zeroed.
  const bool same_pitch = stride == 1 && ow == w;
  Scalar* orow = out;
  for (int ch = 0; ch < c; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      const InteriorSpan ys = InteriorOf(ky, h, oh, stride, pad_h);
      for (int kx = 0; kx < kw; ++kx, orow += ncols) {
        const InteriorSpan xs = InteriorOf(kx, w, ow, stride, pad_w);
        // Input element (oy*stride + ky - pad_h, ox*stride + kx - pad_w)
        // sits at plane[oy*stride*w + ox*stride + shift].
        const std::ptrdiff_t shift =
            static_cast<std::ptrdiff_t>(ky - pad_h) * w + (kx - pad_w);
        for (int b = 0; b < n; ++b) {
          const Scalar* plane =
              in + (static_cast<std::size_t>(b) * c + ch) * in_cs;
          Scalar* dst = orow + static_cast<std::size_t>(b) * out_cs;
          std::fill(dst, dst + static_cast<std::size_t>(ys.lo) * ow, 0.0f);
          std::fill(dst + static_cast<std::size_t>(ys.hi) * ow,
                    dst + out_cs, 0.0f);
          if (xs.lo == xs.hi) {
            std::fill(dst + static_cast<std::size_t>(ys.lo) * ow,
                      dst + static_cast<std::size_t>(ys.hi) * ow, 0.0f);
            continue;
          }
          if (ys.lo == ys.hi) continue;
          if (same_pitch) {
            const std::ptrdiff_t first =
                static_cast<std::ptrdiff_t>(ys.lo) * ow + xs.lo;
            const std::ptrdiff_t last =
                static_cast<std::ptrdiff_t>(ys.hi - 1) * ow + xs.hi;
            const Scalar* src = plane + (first + shift);
            for (std::ptrdiff_t i = 0; i < last - first; ++i) {
              dst[first + i] = src[i];
            }
          } else {
            for (int oy = ys.lo; oy < ys.hi; ++oy) {
              Scalar* drow = dst + static_cast<std::size_t>(oy) * ow;
              const std::ptrdiff_t base =
                  static_cast<std::ptrdiff_t>(oy) * stride * w + shift;
              for (int ox = xs.lo; ox < xs.hi; ++ox) {
                drow[ox] =
                    plane[base + static_cast<std::ptrdiff_t>(ox) * stride];
              }
            }
          }
          // Edge columns are zeroed one strided column at a time: a tap has
          // at most pad_w of them, and a column loop stays inline where a
          // short per-row fill would become a libc call per row.
          const auto zero_column = [&](int ox) {
            for (int oy = ys.lo; oy < ys.hi; ++oy) {
              dst[static_cast<std::size_t>(oy) * ow + ox] = 0.0f;
            }
          };
          for (int ox = 0; ox < xs.lo; ++ox) zero_column(ox);
          for (int ox = xs.hi; ox < ow; ++ox) zero_column(ox);
        }
      }
    }
  }
}

Tensor Im2Col(const Tensor& input, int kh, int kw, int stride, int pad_h,
              int pad_w) {
  const auto [n, c, h, w] = ImageDimsOf(input.shape());
  const int oh = OutExtent(h, pad_h, kh, stride);
  const int ow = OutExtent(w, pad_w, kw, stride);
  MHB_CHECK_GT(oh, 0);
  MHB_CHECK_GT(ow, 0);
  Tensor cols = Tensor::Uninitialized({c * kh * kw, n * oh * ow});
  Im2ColInto(input, kh, kw, stride, pad_h, pad_w, cols.data().data());
  return cols;
}

void Col2ImAcc(const float* cols, const Shape& input_shape, int kh, int kw,
               int stride, int pad_h, int pad_w, float* out) {
  const auto [n, c, h, w] = ImageDimsOf(input_shape);
  const int oh = OutExtent(h, pad_h, kh, stride);
  const int ow = OutExtent(w, pad_w, kw, stride);
  const std::size_t out_cs = static_cast<std::size_t>(h) * w;
  const std::size_t ncols = static_cast<std::size_t>(n) * oh * ow;
  if (kh == 1 && kw == 1 && stride == 1 && pad_h == 0 && pad_w == 0) {
    // Each column feeds exactly one input element, and a (b, ch) plane is
    // one contiguous run of its channel's row: a single add per element,
    // as the general loop makes, without its per-row bookkeeping.
    for (int b = 0; b < n; ++b) {
      for (int ch = 0; ch < c; ++ch) {
        Scalar* plane =
            out + (static_cast<std::size_t>(b) * c + ch) * out_cs;
        const Scalar* tap = cols + static_cast<std::size_t>(ch) * ncols +
                            static_cast<std::size_t>(b) * out_cs;
        for (std::size_t i = 0; i < out_cs; ++i) plane[i] += tap[i];
      }
    }
    return;
  }
  std::vector<InteriorSpan> spans;
  spans.reserve(static_cast<std::size_t>(kw));
  for (int kx = 0; kx < kw; ++kx) {
    spans.push_back(InteriorOf(kx, w, ow, stride, pad_w));
  }
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      Scalar* plane = out + (static_cast<std::size_t>(b) * c + ch) * out_cs;
      for (int oy = 0; oy < oh; ++oy) {
        const std::size_t col0 =
            (static_cast<std::size_t>(b) * oh + oy) * ow;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad_h;
          if (iy < 0 || iy >= h) continue;
          Scalar* line = plane + static_cast<std::size_t>(iy) * w;
          // Input column ix = ox*stride + kx - pad_w gets its (ox, kx)
          // contributions in ascending ox exactly when kx descends, so
          // this (kx descending, ox ascending) order equals the
          // (ox, kx) one while each inner loop is a plain strided add.
          for (int kx = kw - 1; kx >= 0; --kx) {
            const Scalar* tap =
                cols +
                ((static_cast<std::size_t>(ch) * kh + ky) * kw + kx) * ncols +
                col0;
            const InteriorSpan span = spans[static_cast<std::size_t>(kx)];
            const int shift = kx - pad_w;
            if (stride == 1) {
              for (int ox = span.lo; ox < span.hi; ++ox) {
                line[ox + shift] += tap[ox];
              }
            } else {
              for (int ox = span.lo; ox < span.hi; ++ox) {
                line[ox * stride + shift] += tap[ox];
              }
            }
          }
        }
      }
    }
  }
}

Tensor Col2Im(const Tensor& cols, const Shape& input_shape, int kh, int kw,
              int stride, int pad_h, int pad_w) {
  MHB_CHECK_EQ(cols.ndim(), 2);
  const auto [n, c, h, w] = ImageDimsOf(input_shape);
  const int oh = OutExtent(h, pad_h, kh, stride);
  const int ow = OutExtent(w, pad_w, kw, stride);
  MHB_CHECK_EQ(cols.dim(0), c * kh * kw);
  MHB_CHECK_EQ(cols.dim(1), n * oh * ow);
  Tensor grad(input_shape);
  Col2ImAcc(cols.data().data(), input_shape, kh, kw, stride, pad_h, pad_w,
            grad.data().data());
  return grad;
}

Tensor GatherDims(const Tensor& src, const DimIndices& index) {
  Tensor out = Tensor::Uninitialized(SelectedShape(src.shape(), index));
  const Scalar* ps = src.data().data();
  Scalar* po = out.data().data();
  ForEachSelectedBlock(
      src.shape(), index,
      [&](std::size_t small_off, std::size_t large_off, std::size_t block) {
        std::memcpy(po + small_off, ps + large_off, block * sizeof(Scalar));
      });
  return out;
}

Shape AppendSelectedRuns(const Shape& full_shape, const DimIndices& index,
                         std::size_t base, std::vector<CoordRun>& runs) {
  Shape selected = SelectedShape(full_shape, index);
  ForEachSelectedBlock(
      full_shape, index,
      [&](std::size_t, std::size_t large_off, std::size_t block) {
        const std::size_t offset = base + large_off;
        if (!runs.empty() &&
            runs.back().offset + runs.back().length == offset) {
          runs.back().length += block;
        } else {
          runs.push_back({offset, block});
        }
      });
  return selected;
}

}  // namespace mhbench::ops
