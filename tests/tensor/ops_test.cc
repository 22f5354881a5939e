#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace mhbench {
namespace {

TEST(MatmulTest, SmallKnownProduct) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
  Tensor a({2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<Scalar>{5, 6, 7, 8});
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(
      Tensor({2, 2}, std::vector<Scalar>{19, 22, 43, 50})));
}

TEST(MatmulTest, RectangularShapes) {
  Tensor a({2, 3}, std::vector<Scalar>{1, 0, 2, 0, 1, 1});
  Tensor b({3, 1}, std::vector<Scalar>{1, 2, 3});
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(
      Tensor({2, 1}, std::vector<Scalar>{7, 5})));
}

TEST(MatmulTest, DimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(ops::Matmul(a, b), Error);
}

TEST(MatmulTest, TransBEquivalence) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 5}, rng);
  Tensor b = Tensor::Randn({3, 5}, rng);
  const Tensor expect = ops::Matmul(a, ops::Transpose2d(b));
  EXPECT_TRUE(ops::MatmulTransB(a, b).AllClose(expect, 1e-4f));
}

TEST(MatmulTest, TransAEquivalence) {
  Rng rng(2);
  Tensor a = Tensor::Randn({4, 5}, rng);
  Tensor b = Tensor::Randn({4, 3}, rng);
  const Tensor expect = ops::Matmul(ops::Transpose2d(a), b);
  EXPECT_TRUE(ops::MatmulTransA(a, b).AllClose(expect, 1e-4f));
}

TEST(Transpose2dTest, InvolutionProperty) {
  Rng rng(3);
  Tensor a = Tensor::Randn({3, 7}, rng);
  EXPECT_TRUE(ops::Transpose2d(ops::Transpose2d(a)).AllClose(a));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(4);
  Tensor logits = Tensor::Randn({5, 8}, rng, 3.0f);
  const Tensor p = ops::SoftmaxRows(logits);
  for (int i = 0; i < 5; ++i) {
    double sum = 0;
    for (int j = 0; j < 8; ++j) sum += p.at({i, j});
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, InvariantToShift) {
  Tensor a({1, 3}, std::vector<Scalar>{1, 2, 3});
  Tensor b({1, 3}, std::vector<Scalar>{101, 102, 103});
  EXPECT_TRUE(ops::SoftmaxRows(a).AllClose(ops::SoftmaxRows(b), 1e-5f));
}

TEST(SoftmaxTest, LargeLogitsStable) {
  Tensor a({1, 2}, std::vector<Scalar>{1000.0f, 0.0f});
  const Tensor p = ops::SoftmaxRows(a);
  EXPECT_NEAR(p[0], 1.0, 1e-6);
  EXPECT_NEAR(p[1], 0.0, 1e-6);
}

TEST(LogSoftmaxTest, MatchesLogOfSoftmax) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({3, 6}, rng);
  const Tensor lp = ops::LogSoftmaxRows(logits);
  const Tensor p = ops::SoftmaxRows(logits);
  for (std::size_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-4);
  }
}

TEST(ArgmaxTest, PicksMaxPerRow) {
  Tensor t({2, 3}, std::vector<Scalar>{1, 5, 2, 9, 0, 3});
  const auto idx = ops::ArgmaxRows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Im2ColTest, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1, no pad: row ch is channel ch's pixels, columns
  // ordered (b, oy, ox).
  Tensor x({1, 2, 2, 2}, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor cols = ops::Im2Col(x, 1, 1, 1, 0);
  EXPECT_EQ(cols.dim(0), 2);
  EXPECT_EQ(cols.dim(1), 4);
  // Column (oy=0, ox=0): channels (1, 5).
  EXPECT_EQ(cols.at({0, 0}), 1.0f);
  EXPECT_EQ(cols.at({1, 0}), 5.0f);
  // Column (oy=1, ox=1): channels (4, 8).
  EXPECT_EQ(cols.at({0, 3}), 4.0f);
  EXPECT_EQ(cols.at({1, 3}), 8.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor x({1, 1, 1, 1}, std::vector<Scalar>{5});
  const Tensor cols = ops::Im2Col(x, 3, 3, 1, 1);
  EXPECT_EQ(cols.dim(0), 9);
  EXPECT_EQ(cols.dim(1), 1);
  // Center element of the 3x3 window is the pixel, everything else zero.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(cols[static_cast<std::size_t>(i)], i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Im2ColTest, OutputSizeWithStride) {
  Tensor x({2, 3, 8, 8});
  const Tensor cols = ops::Im2Col(x, 3, 3, 2, 1);
  // OH = OW = (8 + 2 - 3)/2 + 1 = 4.
  EXPECT_EQ(cols.dim(0), 3 * 9);
  EXPECT_EQ(cols.dim(1), 2 * 4 * 4);
}

TEST(Im2ColTest, EveryEntryIsItsTapOrZero) {
  // Element (tap p = (ch*kh + ky)*kw + kx, column r = (b*OH + oy)*OW + ox)
  // is input (b, ch, oy*s + ky - pad_h, ox*s + kx - pad_w), or 0 outside,
  // for strides and asymmetric pads that clip both edges, a valid (unpadded)
  // window, and a single output pixel whose edge taps see only padding.
  Rng rng(5);
  const Tensor x = Tensor::Randn({2, 3, 5, 7}, rng);
  struct Case {
    int kh, kw, stride, pad_h, pad_w;
  };
  for (const Case c : {Case{3, 3, 1, 1, 1}, Case{3, 3, 2, 1, 1},
                       Case{1, 5, 1, 0, 2}, Case{2, 4, 3, 1, 2},
                       Case{3, 3, 1, 0, 0}, Case{5, 7, 3, 1, 1}}) {
    const Tensor cols = ops::Im2Col(x, c.kh, c.kw, c.stride, c.pad_h,
                                    c.pad_w);
    const int oh = (5 + 2 * c.pad_h - c.kh) / c.stride + 1;
    const int ow = (7 + 2 * c.pad_w - c.kw) / c.stride + 1;
    ASSERT_EQ(cols.shape(), Shape({3 * c.kh * c.kw, 2 * oh * ow}));
    for (int ch = 0; ch < 3; ++ch) {
      for (int ky = 0; ky < c.kh; ++ky) {
        for (int kx = 0; kx < c.kw; ++kx) {
          const int p = (ch * c.kh + ky) * c.kw + kx;
          for (int b = 0; b < 2; ++b) {
            for (int oy = 0; oy < oh; ++oy) {
              for (int ox = 0; ox < ow; ++ox) {
                const int iy = oy * c.stride + ky - c.pad_h;
                const int ix = ox * c.stride + kx - c.pad_w;
                const bool inside = iy >= 0 && iy < 5 && ix >= 0 && ix < 7;
                const int r = (b * oh + oy) * ow + ox;
                ASSERT_EQ(cols.at({p, r}),
                          inside ? x.at({b, ch, iy, ix}) : 0.0f)
                    << "k=" << c.kh << "x" << c.kw << " s=" << c.stride
                    << " tap " << p << " col " << r;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Col2ImTest, AdjointOfIm2Col) {
  // <Im2Col(x), y> == <x, Col2Im(y)> for random x, y (adjoint property).
  Rng rng(6);
  const Shape xshape = {2, 3, 6, 6};
  Tensor x = Tensor::Randn(xshape, rng);
  const Tensor cx = ops::Im2Col(x, 3, 3, 2, 1);
  Tensor y = Tensor::Randn(cx.shape(), rng);
  const Tensor cty = ops::Col2Im(y, xshape, 3, 3, 2, 1);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * cty[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace mhbench
