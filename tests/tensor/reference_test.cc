// Property sweeps checking the optimized kernels against naive reference
// implementations over randomized shapes (parameterized gtest).
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/conv.h"
#include "tensor/ops.h"

namespace mhbench {
namespace {

// Naive O(mnk) matmul.
Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at({i, kk})) * b.at({kk, j});
      }
      c.at({i, j}) = static_cast<Scalar>(acc);
    }
  }
  return c;
}

// Direct convolution (no im2col).
Tensor NaiveConv2d(const Tensor& x, const Tensor& w, int stride, int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = (h + 2 * pad - kh) / stride + 1;
  const int ow = (wd + 2 * pad - kw) / stride + 1;
  Tensor y({n, cout, oh, ow});
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          double acc = 0;
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy * stride + ky - pad;
                const int ix = ox * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(x.at({b, ic, iy, ix})) *
                       w.at({oc, ic, ky, kx});
              }
            }
          }
          y.at({b, oc, oy, ox}) = static_cast<Scalar>(acc);
        }
      }
    }
  }
  return y;
}

using MatShape = std::tuple<int, int, int>;  // m, k, n

class MatmulReference : public ::testing::TestWithParam<MatShape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulReference,
                         ::testing::Values(MatShape{1, 1, 1},
                                           MatShape{1, 7, 3},
                                           MatShape{5, 1, 5},
                                           MatShape{8, 8, 8},
                                           MatShape{3, 17, 11},
                                           MatShape{16, 5, 31}));

TEST_P(MatmulReference, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(NaiveMatmul(a, b), 1e-4f));
  EXPECT_TRUE(
      ops::MatmulTransB(a, ops::Transpose2d(b)).AllClose(NaiveMatmul(a, b),
                                                         1e-4f));
  EXPECT_TRUE(
      ops::MatmulTransA(ops::Transpose2d(a), b).AllClose(NaiveMatmul(a, b),
                                                         1e-4f));
}

using ConvCase = std::tuple<int, int, int, int, int>;  // cin,cout,k,stride,pad

class ConvReference : public ::testing::TestWithParam<ConvCase> {};

INSTANTIATE_TEST_SUITE_P(Shapes, ConvReference,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0},
                                           ConvCase{2, 3, 3, 1, 1},
                                           ConvCase{3, 2, 3, 2, 1},
                                           ConvCase{4, 4, 1, 1, 0},
                                           ConvCase{2, 5, 3, 1, 0},
                                           ConvCase{1, 2, 5, 1, 2}));

TEST_P(ConvReference, ForwardMatchesDirectConvolution) {
  const auto [cin, cout, k, stride, pad] = GetParam();
  Rng rng(static_cast<std::uint64_t>(cin * 100 + cout * 10 + k));
  const Tensor x = Tensor::Randn({2, cin, 8, 8}, rng);
  const Tensor w = Tensor::Randn({cout, cin, k, k}, rng, 0.5f);
  nn::Conv2d conv(w, Tensor(), stride, pad);
  const Tensor got = conv.Infer(x, nn::NormStats::kRunning);
  const Tensor expect = NaiveConv2d(x, w, stride, pad);
  EXPECT_TRUE(got.AllClose(expect, 1e-3f));
}

}  // namespace
}  // namespace mhbench
