#include "nn/conv.h"

#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "grad_check.h"
#include "nn/init.h"
#include "tensor/gemm.h"

namespace mhbench::nn {
namespace {

TEST(Conv2dTest, IdentityKernel) {
  // 1x1 kernel with weight 1 on a single channel is the identity.
  Conv2d conv(Tensor({1, 1, 1, 1}, {1.0f}), Tensor(), 1, 0);
  Rng rng(1);
  const Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  EXPECT_TRUE(conv.Forward(x).AllClose(x));
}

TEST(Conv2dTest, KnownSum3x3) {
  // All-ones 3x3 kernel with pad 1 computes neighborhood sums.
  Conv2d conv(Tensor({1, 1, 3, 3}, 1.0f), Tensor(), 1, 1);
  Tensor x({1, 1, 2, 2}, std::vector<Scalar>{1, 2, 3, 4});
  const Tensor y = conv.Forward(x);
  // Every output = sum of all in-window pixels; corners see all 4 pixels
  // minus those outside.  For 2x2 all-window-covered: each output = 10 when
  // window covers everything; here (0,0) window covers pixels {1,2,3,4}.
  EXPECT_TRUE(y.AllClose(Tensor({1, 1, 2, 2}, std::vector<Scalar>{10, 10, 10, 10})));
}

TEST(Conv2dTest, BiasApplied) {
  Conv2d conv(Tensor({1, 1, 1, 1}, {0.0f}), Tensor::FromVector({3.0f}), 1, 0);
  Tensor x({1, 1, 2, 2});
  const Tensor y = conv.Forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Conv2dTest, OutputShapeStride2) {
  Rng rng(2);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Conv2dTest, InputChannelMismatchThrows) {
  Rng rng(3);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x({1, 2, 4, 4});
  EXPECT_THROW(conv.Forward(x), Error);
}

TEST(Conv2dTest, GradientCheck) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv2dTest, GradientCheckStride2NoBias) {
  Rng rng(5);
  Conv2d conv(2, 2, 3, 2, 1, rng, /*bias=*/false);
  const Tensor x = Tensor::Randn({1, 2, 6, 6}, rng);
  testing::ExpectGradientsClose(conv, x, rng);
}

// A 1 x k Conv2d with pad_h 0 over [N, C, L]: the unit-height case the HAR
// CNN runs on sensor windows.
Conv2d UnitHeightConv(int in_c, int out_c, int k, int stride, int pad,
                      Rng& rng) {
  return Conv2d(KaimingNormal({out_c, in_c, 1, k}, in_c * k, rng),
                Tensor({out_c}), stride, /*pad_h=*/0, pad);
}

TEST(Conv2dUnitHeightTest, ShapeAndGradient) {
  Rng rng(6);
  Conv2d conv = UnitHeightConv(2, 4, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 2, 8}, rng);
  const Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 4, 8}));
  testing::ExpectGradientsClose(conv, x, rng);
}

TEST(Conv2dUnitHeightTest, StrideReducesLength) {
  Rng rng(7);
  Conv2d conv = UnitHeightConv(1, 1, 3, 2, 1, rng);
  const Tensor x = Tensor::Randn({1, 1, 8}, rng);
  EXPECT_EQ(conv.Forward(x).shape(), Shape({1, 1, 4}));
}

TEST(Conv2dTest, BackwardRejectsGradOfWrongShape) {
  // Only [N, out_c, OH, OW] of the last forward is a valid gradient; a
  // larger batch or a different spatial extent must fail, not be read past
  // its end or against the cached geometry.
  Rng rng(9);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  conv.Forward(x);
  EXPECT_THROW(conv.Backward(Tensor({4, 4, 8, 8})), Error);
  EXPECT_THROW(conv.Backward(Tensor({2, 4, 4, 4})), Error);
  EXPECT_THROW(conv.Backward(Tensor({1, 4, 8, 8})), Error);
  EXPECT_THROW(conv.Backward(Tensor({2, 5, 8, 8})), Error);
  EXPECT_EQ(conv.Backward(Tensor({2, 4, 8, 8})).shape(), x.shape());
}

TEST(Conv2dUnitHeightTest, RejectsKernelTallerThanOne) {
  Rng rng(13);
  Conv2d conv(2, 4, 3, 1, 1, rng);  // 3 x 3
  EXPECT_THROW(conv.Forward(Tensor({1, 2, 8})), Error);
  Conv2d padded(Tensor({4, 2, 1, 3}), Tensor(), 1, /*pad_h=*/1, 1);
  EXPECT_THROW(padded.Forward(Tensor({1, 2, 8})), Error);
}

TEST(Conv2dUnitHeightTest, BackwardRejectsGradOfWrongShape) {
  Rng rng(10);
  Conv2d conv = UnitHeightConv(2, 4, 5, 1, 2, rng);
  const Tensor x = Tensor::Randn({2, 2, 16}, rng);
  conv.Forward(x);
  EXPECT_THROW(conv.Backward(Tensor({4, 4, 16})), Error);
  EXPECT_THROW(conv.Backward(Tensor({2, 4, 8})), Error);
  EXPECT_THROW(conv.Backward(Tensor({2, 4, 1, 16})), Error);
  EXPECT_EQ(conv.Backward(Tensor({2, 4, 16})).shape(), x.shape());
}

TEST(Conv2dTest, ParamNames) {
  Rng rng(8);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  std::vector<NamedParam> params;
  conv.CollectParams("conv1", params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "conv1/weight");
  EXPECT_EQ(params[1].name, "conv1/bias");
}

// --- Bitwise reference: the row-major im2col formulation -----------------
//
// Conv2d runs on a channel-major column matrix (nn/conv.h).  The reference
// below is the row-major algorithm it replaced: cols[N*OH*OW, ickk],
// rows = cols · W^T with the bias in the GEMM epilogue, a row -> NCHW
// transpose, and in Backward dW += G^T · cols, a column sum for the bias,
// dcols = G · W and a row-major col2im.  On the fast backend the two must
// agree bit for bit, for every micro-kernel ISA.

struct ConvCase {
  const char* name;
  int n, c, h, w, oc, kh, kw, stride, pad_h, pad_w;
  bool bias;
  int oh() const { return (h + 2 * pad_h - kh) / stride + 1; }
  int ow() const { return (w + 2 * pad_w - kw) / stride + 1; }
  int rows() const { return n * oh() * ow(); }
  int ickk() const { return c * kh * kw; }
};

// cols[row = (b, oy, ox), col = (ch, ky, kx)].
std::vector<float> RowMajorIm2Col(const Tensor& x, const ConvCase& k) {
  std::vector<float> cols(static_cast<std::size_t>(k.rows()) * k.ickk());
  std::size_t at = 0;
  for (int b = 0; b < k.n; ++b) {
    for (int oy = 0; oy < k.oh(); ++oy) {
      for (int ox = 0; ox < k.ow(); ++ox) {
        for (int ch = 0; ch < k.c; ++ch) {
          for (int ky = 0; ky < k.kh; ++ky) {
            for (int kx = 0; kx < k.kw; ++kx, ++at) {
              const int iy = oy * k.stride + ky - k.pad_h;
              const int ix = ox * k.stride + kx - k.pad_w;
              const bool inside =
                  iy >= 0 && iy < k.h && ix >= 0 && ix < k.w;
              cols[at] = inside ? x.at({b, ch, iy, ix}) : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor RefForward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  const ConvCase& k) {
  const std::vector<float> cols = RowMajorIm2Col(x, k);
  std::vector<float> rows(static_cast<std::size_t>(k.rows()) * k.oc);
  kernels::Gemm(false, true, k.rows(), k.oc, k.ickk(), cols.data(), k.ickk(),
                weight.data().data(), k.ickk(), 0.0f, rows.data(), k.oc,
                bias.empty() ? nullptr : bias.data().data());
  Tensor out({k.n, k.oc, k.oh(), k.ow()});
  std::size_t row = 0;
  for (int b = 0; b < k.n; ++b) {
    for (int oy = 0; oy < k.oh(); ++oy) {
      for (int ox = 0; ox < k.ow(); ++ox, ++row) {
        for (int o = 0; o < k.oc; ++o) {
          out.at({b, o, oy, ox}) = rows[row * k.oc + o];
        }
      }
    }
  }
  return out;
}

// Accumulates into dw/db (beta = 1, as Conv2d does) and returns dx.
Tensor RefBackward(const Tensor& x, const Tensor& weight, const Tensor& g,
                   const ConvCase& k, Tensor& dw, Tensor& db) {
  const std::vector<float> cols = RowMajorIm2Col(x, k);
  std::vector<float> grows(static_cast<std::size_t>(k.rows()) * k.oc);
  std::size_t row = 0;
  for (int b = 0; b < k.n; ++b) {
    for (int oy = 0; oy < k.oh(); ++oy) {
      for (int ox = 0; ox < k.ow(); ++ox, ++row) {
        for (int o = 0; o < k.oc; ++o) {
          grows[row * k.oc + o] = g.at({b, o, oy, ox});
        }
      }
    }
  }
  kernels::Gemm(true, false, k.oc, k.ickk(), k.rows(), grows.data(), k.oc,
                cols.data(), k.ickk(), 1.0f, dw.data().data(), k.ickk());
  if (k.bias) {
    kernels::ColSumAcc(grows.data(), k.rows(), k.oc, k.oc, db.data().data());
  }
  std::vector<float> dcols(cols.size());
  kernels::Gemm(false, false, k.rows(), k.ickk(), k.oc, grows.data(), k.oc,
                weight.data().data(), k.ickk(), 0.0f, dcols.data(), k.ickk());
  Tensor dx({k.n, k.c, k.h, k.w});
  std::size_t at = 0;
  for (int b = 0; b < k.n; ++b) {
    for (int oy = 0; oy < k.oh(); ++oy) {
      for (int ox = 0; ox < k.ow(); ++ox) {
        for (int ch = 0; ch < k.c; ++ch) {
          for (int ky = 0; ky < k.kh; ++ky) {
            for (int kx = 0; kx < k.kw; ++kx, ++at) {
              const int iy = oy * k.stride + ky - k.pad_h;
              const int ix = ox * k.stride + kx - k.pad_w;
              if (iy >= 0 && iy < k.h && ix >= 0 && ix < k.w) {
                dx.at({b, ch, iy, ix}) += dcols[at];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

const ConvCase kConvCases[] = {
    {"1x1", 2, 5, 6, 6, 7, 1, 1, 1, 0, 0, true},
    {"3x3_pad1", 2, 4, 7, 9, 11, 3, 3, 1, 1, 1, true},
    {"3x3_pad1_stride2", 3, 3, 9, 8, 8, 3, 3, 2, 1, 1, false},
    {"3x3_valid", 2, 3, 6, 7, 9, 3, 3, 1, 0, 0, true},
    {"conv1d_5tap", 3, 6, 1, 20, 5, 1, 5, 1, 0, 2, true},
    // ickk = 324 and N*OH*OW = 400: two kKC blocks in the forward and
    // input-gradient contraction and two in the weight-gradient one.
    {"deep_k", 4, 36, 10, 10, 13, 3, 3, 1, 1, 1, true},
};

// Runs Forward, Infer (both stats) and Backward of one case through Conv2d
// on `backend` and through the reference on the fast backend, with
// non-zero starting gradients, and checks every result with `same`.
template <typename Same>
void CompareWithReference(const ConvCase& k, kernels::Backend backend,
                          Same same) {
  SCOPED_TRACE(k.name);
  Rng rng(static_cast<std::uint64_t>(k.ickk()) * 131 + k.rows());
  const Tensor weight = Tensor::Randn({k.oc, k.c, k.kh, k.kw}, rng, 0.3f);
  const Tensor bias = k.bias ? Tensor::Randn({k.oc}, rng) : Tensor();
  const Tensor x = Tensor::Randn({k.n, k.c, k.h, k.w}, rng);
  const Tensor g = Tensor::Randn({k.n, k.oc, k.oh(), k.ow()}, rng);
  const Tensor dw0 = Tensor::Randn(weight.shape(), rng);
  const Tensor db0 = k.bias ? Tensor::Randn({k.oc}, rng) : Tensor();

  const Tensor want_y = RefForward(x, weight, bias, k);
  Tensor want_dw = dw0;
  Tensor want_db = db0;
  const Tensor want_dx = RefBackward(x, weight, g, k, want_dw, want_db);

  kernels::SetBackend(backend);
  Conv2d conv(weight, bias, k.stride, k.pad_h, k.pad_w);
  conv.weight().grad = dw0;
  if (k.bias) conv.bias().grad = db0;
  const Tensor y = conv.Forward(x);
  const Tensor y_running = conv.Infer(x, NormStats::kRunning);
  const Tensor y_batch = conv.Infer(x, NormStats::kBatch);
  const Tensor dx = conv.Backward(g);
  kernels::SetBackend(kernels::Backend::kFast);

  // A conv that computes no input gradient (a model's stem) accumulates
  // the same parameter gradients and returns an empty tensor.
  kernels::SetBackend(backend);
  Conv2d stem(weight, bias, k.stride, k.pad_h, k.pad_w);
  stem.set_input_grad(false);
  stem.weight().grad = dw0;
  if (k.bias) stem.bias().grad = db0;
  stem.Forward(x);
  const Tensor no_dx = stem.Backward(g);
  kernels::SetBackend(kernels::Backend::kFast);

  same(y, want_y, "forward");
  same(y_running, want_y, "infer running");
  same(y_batch, want_y, "infer batch");
  same(dx, want_dx, "dx");
  same(conv.weight().grad, want_dw, "dW");
  if (k.bias) same(conv.bias().grad, want_db, "db");
  EXPECT_TRUE(no_dx.empty());
  same(stem.weight().grad, want_dw, "dW without dx");
  if (k.bias) same(stem.bias().grad, want_db, "db without dx");
}

TEST(Conv2dReferenceTest, ChannelMajorIsBitIdenticalToRowMajor) {
  const kernels::Isa saved = kernels::CurrentIsa();
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::IsaAvailable(isa)) continue;
    ASSERT_TRUE(kernels::SetIsa(isa));
    SCOPED_TRACE(kernels::IsaName(isa));
    for (const ConvCase& k : kConvCases) {
      CompareWithReference(
          k, kernels::Backend::kFast,
          [](const Tensor& got, const Tensor& want, const char* what) {
            EXPECT_TRUE(BitEqual(got, want)) << what;
          });
    }
  }
  ASSERT_TRUE(kernels::SetIsa(saved));
}

TEST(Conv2dReferenceTest, NaiveBackendAgreesToTolerance) {
  // The naive kernels do not block k and may round multiply-adds
  // differently, so they agree with the fast reference only to rounding
  // (tensor/gemm.h).
  for (const ConvCase& k : kConvCases) {
    const float tol = 1e-5f * static_cast<float>(k.ickk() + k.rows());
    CompareWithReference(
        k, kernels::Backend::kNaive,
        [tol](const Tensor& got, const Tensor& want, const char* what) {
          EXPECT_TRUE(got.AllClose(want, tol)) << what;
        });
  }
}

TEST(Conv2dUnitHeightTest, MatchesTheFourDimViewBitwise) {
  Rng rng(11);
  const Tensor w = Tensor::Randn({5, 3, 1, 5}, rng);
  const Tensor b = Tensor::Randn({5}, rng);
  Conv2d conv1(w, b, 1, 0, 2);
  Conv2d conv2(w, b, 1, 0, 2);
  const Tensor x = Tensor::Randn({2, 3, 12}, rng);
  const Tensor y = conv1.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 5, 12}));
  EXPECT_TRUE(BitEqual(y, conv2.Forward(x.Reshape({2, 3, 1, 12}))
                              .Reshape({2, 5, 12})));
  EXPECT_TRUE(BitEqual(conv1.Infer(x, NormStats::kBatch), y));
  const Tensor g = Tensor::Randn(y.shape(), rng);
  EXPECT_TRUE(BitEqual(conv1.Backward(g),
                       conv2.Backward(g.Reshape({2, 5, 1, 12}))
                           .Reshape({2, 3, 12})));
  EXPECT_TRUE(BitEqual(conv1.weight().grad, conv2.weight().grad));
  EXPECT_TRUE(BitEqual(conv1.bias().grad, conv2.bias().grad));
}

// Tensor buffers (fresh or recycled) that `fn` takes on this thread.
std::uint64_t TensorAllocs(const std::function<void()>& fn) {
  const Tensor::AllocStats before = Tensor::ThreadAllocStats();
  fn();
  const Tensor::AllocStats after = Tensor::ThreadAllocStats();
  return (after.heap_allocs - before.heap_allocs) +
         (after.pool_hits - before.pool_hits);
}

TEST(Conv2dUnitHeightTest, CopiesNeitherInputNorGradient) {
  // A conv over [N, C, L] takes no more tensor buffers than the same conv
  // over the [N, C, 1, L] view: its input and gradient are read in place.
  Rng rng(12);
  const Tensor w = Tensor::Randn({4, 3, 1, 5}, rng);
  Conv2d conv1(w, Tensor(), 1, 0, 2);
  Conv2d conv4(w, Tensor(), 1, 0, 2);
  const Tensor x = Tensor::Randn({2, 3, 16}, rng);
  const Tensor x4 = x.Reshape({2, 3, 1, 16});
  const Tensor g = Tensor::Randn({2, 4, 16}, rng);
  const Tensor g4 = g.Reshape({2, 4, 1, 16});
  // Warm the thread's tensor pool.
  conv1.Forward(x);
  conv1.Backward(g);
  conv4.Forward(x4);
  conv4.Backward(g4);
  EXPECT_LE(TensorAllocs([&] { conv1.Forward(x); }),
            TensorAllocs([&] { conv4.Forward(x4); }));
  EXPECT_LE(TensorAllocs([&] { conv1.Infer(x, NormStats::kBatch); }),
            TensorAllocs([&] { conv4.Infer(x4, NormStats::kBatch); }));
  EXPECT_LE(TensorAllocs([&] { conv1.Backward(g); }),
            TensorAllocs([&] { conv4.Backward(g4); }));
}

}  // namespace
}  // namespace mhbench::nn
