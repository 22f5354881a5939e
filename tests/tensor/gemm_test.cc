// Tests for the packed GEMM kernel layer (tensor/gemm.h) and the scratch
// arena (tensor/scratch.h): fast-vs-reference agreement over adversarial
// shapes, the run-to-run bit-determinism contract, fused epilogues, and the
// zero-allocation steady state of the conv hot path.
#include "tensor/gemm.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/loader.h"
#include "data/tasks.h"
#include "fl/client.h"
#include "models/zoo.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace mhbench {
namespace {

using kernels::Gemm;
using kernels::NaiveGemm;

std::vector<float> RandVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

// Independent textbook reference: double accumulation, no blocking, no
// shared code with the library kernels.
void RefGemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
             int lda, const float* b, int ldb, float beta, float* c, int ldc,
             const float* bias) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = trans_a ? a[static_cast<std::size_t>(p) * lda + i]
                                  : a[static_cast<std::size_t>(i) * lda + p];
        const double bv = trans_b ? b[static_cast<std::size_t>(j) * ldb + p]
                                  : b[static_cast<std::size_t>(p) * ldb + j];
        s += av * bv;
      }
      float v = static_cast<float>(s);
      if (beta != 0.0f) v += beta * c[static_cast<std::size_t>(i) * ldc + j];
      if (bias != nullptr) v += bias[j];
      c[static_cast<std::size_t>(i) * ldc + j] = v;
    }
  }
}

// Runs one (m, n, k) case through all four transpose variants against the
// double-precision reference.
void CheckShape(int m, int n, int k, float tol) {
  Rng rng(static_cast<std::uint64_t>(m) * 1000003 + n * 1009 + k);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const int lda = ta ? m : k;
      const int ldb = tb ? k : n;
      const std::vector<float> a =
          RandVec(static_cast<std::size_t>(ta ? k : m) * lda, rng);
      const std::vector<float> b =
          RandVec(static_cast<std::size_t>(tb ? n : k) * ldb, rng);
      std::vector<float> got(static_cast<std::size_t>(m) * n, 7.0f);
      std::vector<float> want(static_cast<std::size_t>(m) * n, 7.0f);
      Gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, 0.0f, got.data(),
           n);
      RefGemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, 0.0f,
              want.data(), n, nullptr);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], tol)
            << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
            << " tb=" << tb << " at " << i;
      }
    }
  }
}

TEST(GemmTest, AdversarialShapesMatchReference) {
  // Shapes straddling every blocking boundary: the register tile (kMR=6,
  // kNR=16), the cache blocks (kMC=96, kKC=256, kNC=1024), and degenerate
  // single-row/col cases.
  CheckShape(1, 1, 1, 1e-5f);
  CheckShape(1, 17, 3, 1e-4f);
  CheckShape(kernels::kMR, kernels::kNR, 8, 1e-4f);
  CheckShape(kernels::kMR + 1, kernels::kNR + 1, 9, 1e-4f);
  CheckShape(kernels::kMR - 1, kernels::kNR - 1, 33, 1e-4f);
  CheckShape(kernels::kMC, 32, kernels::kKC, 1e-3f);
  CheckShape(kernels::kMC + 5, 19, kernels::kKC + 7, 1e-3f);
  CheckShape(13, kernels::kNC + 3, 21, 1e-3f);
  CheckShape(64, 64, 2 * kernels::kKC + 5, 2e-3f);
}

TEST(GemmTest, BetaAccumulatesIntoExistingOutput) {
  Rng rng(11);
  const int m = 9, n = 20, k = 300;  // two k blocks
  const std::vector<float> a = RandVec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b = RandVec(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0 = RandVec(static_cast<std::size_t>(m) * n, rng);
  for (const float beta : {1.0f, 0.5f}) {
    std::vector<float> got = c0;
    std::vector<float> want = c0;
    Gemm(false, false, m, n, k, a.data(), k, b.data(), n, beta, got.data(), n);
    RefGemm(false, false, m, n, k, a.data(), k, b.data(), n, beta,
            want.data(), n, nullptr);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3f) << "beta=" << beta << " at " << i;
    }
  }
}

TEST(GemmTest, BiasEpilogueBroadcastsOverRows) {
  Rng rng(12);
  const int m = 7, n = 33, k = 40;
  const std::vector<float> a = RandVec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b = RandVec(static_cast<std::size_t>(n) * k, rng);
  const std::vector<float> bias = RandVec(static_cast<std::size_t>(n), rng);
  std::vector<float> got(static_cast<std::size_t>(m) * n);
  std::vector<float> want(static_cast<std::size_t>(m) * n);
  Gemm(false, true, m, n, k, a.data(), k, b.data(), k, 0.0f, got.data(), n,
       bias.data());
  RefGemm(false, true, m, n, k, a.data(), k, b.data(), k, 0.0f, want.data(),
          n, bias.data());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-4f) << "at " << i;
  }
}

TEST(GemmTest, FastAgreesWithNaiveToRounding) {
  // Cross-backend agreement (gemm.h): both accumulate k ascending, but the
  // fast kernel blocks k and its build may fuse multiply-adds, so the two
  // agree only to rounding.  Bit-exact determinism is per-backend — see
  // RepeatedCallsAreBitIdentical and the fl parallel-determinism tests.
  Rng rng(13);
  for (const int k : {1, 5, kernels::kKC, kernels::kKC + 37}) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int m = 23, n = 37;
        const int lda = ta ? m : k;
        const int ldb = tb ? k : n;
        const std::vector<float> a =
            RandVec(static_cast<std::size_t>(ta ? k : m) * lda, rng);
        const std::vector<float> b =
            RandVec(static_cast<std::size_t>(tb ? n : k) * ldb, rng);
        std::vector<float> fast(static_cast<std::size_t>(m) * n);
        std::vector<float> naive(static_cast<std::size_t>(m) * n);
        Gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, 0.0f,
             fast.data(), n);
        NaiveGemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, 0.0f,
                  naive.data(), n);
        const float tol = 1e-4f * static_cast<float>(k);
        for (std::size_t i = 0; i < fast.size(); ++i) {
          ASSERT_NEAR(fast[i], naive[i], tol)
              << "k=" << k << " ta=" << ta << " tb=" << tb << " at " << i;
        }
      }
    }
  }
}

TEST(GemmTest, RepeatedCallsAreBitIdentical) {
  Rng rng(14);
  const int m = 100, n = 50, k = 520;  // multiple blocks in every dimension
  const std::vector<float> a = RandVec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b = RandVec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> first(static_cast<std::size_t>(m) * n);
  Gemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f, first.data(), n);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<float> again(static_cast<std::size_t>(m) * n, -1.0f);
    Gemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f, again.data(),
         n);
    ASSERT_EQ(first, again) << "rep " << rep;
  }
}

TEST(GemmTest, BackendSwitchRoutesToNaive) {
  Rng rng(15);
  const int m = 8, n = 8, k = 8;
  const std::vector<float> a = RandVec(64, rng);
  const std::vector<float> b = RandVec(64, rng);
  std::vector<float> via_switch(64), direct(64);
  kernels::SetBackend(kernels::Backend::kNaive);
  Gemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f,
       via_switch.data(), n);
  kernels::SetBackend(kernels::Backend::kFast);
  NaiveGemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f,
            direct.data(), n);
  EXPECT_EQ(via_switch, direct);
}

TEST(GemmTest, FlopCounterAdvancesByTwoMnk) {
  const std::uint64_t before = kernels::TotalGemmFlops();
  std::vector<float> a(12, 1.0f), b(12, 1.0f), c(9, 0.0f);
  Gemm(false, false, 3, 3, 4, a.data(), 4, b.data(), 3, 0.0f, c.data(), 3);
  EXPECT_EQ(kernels::TotalGemmFlops() - before, 2ull * 3 * 3 * 4);
}

TEST(GemmTest, ZeroSizedDimsFollowTheDegenerateContract) {
  // m == 0 / n == 0: no-op (C untouched).  k == 0: the empty contraction,
  // C = beta*C + bias, on every entry point.
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> before = c;
  Gemm(false, false, 0, 2, 3, nullptr, 3, nullptr, 2, 0.5f, c.data(), 2);
  Gemm(false, false, 2, 0, 3, nullptr, 3, nullptr, 0, 0.5f, c.data(), 2);
  NaiveGemm(false, false, 0, 2, 3, nullptr, 3, nullptr, 2, 0.5f, c.data(), 2);
  EXPECT_EQ(c, before);

  const std::vector<float> bias = {10.0f, 20.0f};
  Gemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, 0.5f, c.data(), 2,
       bias.data());
  EXPECT_EQ(c, (std::vector<float>{10.5f, 21.0f, 11.5f, 22.0f}));

  std::vector<float> c2 = before;
  NaiveGemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, 0.5f, c2.data(), 2,
            bias.data());
  EXPECT_EQ(c2, c);

  // beta == 0, k == 0 must fully define (zero + bias) an uninitialized C.
  std::vector<float> c3 = {-7.0f, -7.0f, -7.0f, -7.0f};
  Gemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, 0.0f, c3.data(), 2,
       bias.data());
  EXPECT_EQ(c3, (std::vector<float>{10.0f, 20.0f, 10.0f, 20.0f}));

}

TEST(GemmTest, PartialBPanelsMatchFullPanelColumns) {
  // The non-transposed B path packs full kNR-wide panels with a fixed-size
  // copy and ragged last panels element by element.  For n straddling kNR
  // (one full panel plus a partial one, and a partial one alone), every
  // column must match the reference, and the columns a narrower call
  // shares with a wider one must be bit-identical to it: a column's value
  // depends only on its own products, not on which panel kind packed it.
  Rng rng(27);
  const int m = 7, k = kernels::kKC + 9;  // two k blocks
  const int wide = 3 * kernels::kNR;
  const std::vector<float> a = RandVec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b =
      RandVec(static_cast<std::size_t>(k) * wide, rng);
  std::vector<float> full(static_cast<std::size_t>(m) * wide);
  Gemm(false, false, m, wide, k, a.data(), k, b.data(), wide, 0.0f,
       full.data(), wide);
  for (const int n : {kernels::kNR - 1, kernels::kNR + 1,
                      2 * kernels::kNR - 3}) {
    std::vector<float> got(static_cast<std::size_t>(m) * n, 7.0f);
    std::vector<float> want(static_cast<std::size_t>(m) * n, 7.0f);
    // Same B buffer, leading dimension `wide`: a column prefix of it.
    Gemm(false, false, m, n, k, a.data(), k, b.data(), wide, 0.0f,
         got.data(), n);
    RefGemm(false, false, m, n, k, a.data(), k, b.data(), wide, 0.0f,
            want.data(), n, nullptr);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        const std::size_t at = static_cast<std::size_t>(i) * n + j;
        ASSERT_NEAR(got[at], want[at], 1e-3f)
            << "n=" << n << " at (" << i << ", " << j << ")";
        ASSERT_EQ(got[at], full[static_cast<std::size_t>(i) * wide + j])
            << "n=" << n << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(GemmTest, EveryAvailableIsaMatchesReferenceAndRepeats) {
  const kernels::Isa saved = kernels::CurrentIsa();
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::IsaAvailable(isa)) continue;
    ASSERT_TRUE(kernels::SetIsa(isa)) << kernels::IsaName(isa);
    ASSERT_EQ(kernels::CurrentIsa(), isa);
    CheckShape(kernels::kMC + 5, 19, kernels::kKC + 7, 1e-3f);
    // Within one variant, repeats stay bit-identical.
    Rng rng(26);
    const int m = 50, n = 70, k = 300;
    const std::vector<float> a =
        RandVec(static_cast<std::size_t>(m) * k, rng);
    const std::vector<float> b =
        RandVec(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> first(static_cast<std::size_t>(m) * n);
    std::vector<float> again(static_cast<std::size_t>(m) * n, -1.0f);
    Gemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f, first.data(),
         n);
    Gemm(false, false, m, n, k, a.data(), k, b.data(), n, 0.0f, again.data(),
         n);
    ASSERT_EQ(first, again) << kernels::IsaName(isa);
  }
  ASSERT_TRUE(kernels::SetIsa(saved));
  // Scalar is always compiled in; the backend name must reflect dispatch.
  EXPECT_TRUE(kernels::IsaAvailable(kernels::Isa::kScalar));
  EXPECT_STREQ(kernels::KernelBackendName(), kernels::IsaName(saved));
}

TEST(GemmTest, ColSumAccReducesColumnsAndAccumulates) {
  Tensor rows({3, 4}, std::vector<Scalar>{1, 2, 3, 4,  //
                                          5, 6, 7, 8,  //
                                          9, 10, 11, 12});
  std::vector<float> out = {100.0f, 0.0f, 0.0f, -1.0f};
  kernels::ColSumAcc(rows.data().data(), 3, 4, 4, out.data());
  EXPECT_EQ(out, (std::vector<float>{115.0f, 18.0f, 21.0f, 23.0f}));
}

TEST(ScratchArenaTest, MarkRestoreReusesStorage) {
  kernels::ScratchArena arena;
  const auto mark = arena.Save();
  float* p1 = arena.Alloc(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 64, 0u);
  arena.Restore(mark);
  float* p2 = arena.Alloc(1000);
  EXPECT_EQ(p1, p2);  // same storage, no growth
  arena.Restore(mark);
  EXPECT_EQ(arena.in_use_bytes(), 0u);
  EXPECT_GE(arena.peak_bytes(), 1000u * sizeof(float));
}

TEST(ScratchArenaTest, GrowsAcrossChunksAndRewinds) {
  kernels::ScratchArena arena;
  const auto mark = arena.Save();
  // Two allocations that cannot share the default 4 MiB chunk.
  float* a = arena.Alloc((std::size_t{1} << 20) - 64);
  float* b = arena.Alloc(std::size_t{1} << 20);
  EXPECT_NE(a, b);
  arena.Restore(mark);
  EXPECT_EQ(arena.in_use_bytes(), 0u);
  EXPECT_EQ(arena.Alloc(16), a);  // rewound to the first chunk
}

TEST(ScratchArenaTest, ConvForwardSteadyStateAllocatesNothing) {
  // The headline zero-allocation property: after one warmup step, repeated
  // Conv2d forward+backward steps perform no tensor-buffer heap allocations
  // and grow no scratch chunks.  (Shape-vector bookkeeping is exempt; see
  // DESIGN.md §5d.)
  Rng rng(16);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  for (int warmup = 0; warmup < 2; ++warmup) {
    Tensor y = conv.Forward(x);
    Tensor g(y.shape(), 1.0f);
    conv.Backward(g);
    kernels::ResetThreadScratch();
  }
  const auto heap_before = Tensor::ThreadAllocStats().heap_allocs;
  const auto chunks_before = kernels::ScratchChunkAllocs();
  for (int step = 0; step < 3; ++step) {
    Tensor y = conv.Forward(x);
    Tensor g(y.shape(), 1.0f);
    conv.Backward(g);
    kernels::ResetThreadScratch();
  }
  EXPECT_EQ(Tensor::ThreadAllocStats().heap_allocs, heap_before);
  EXPECT_EQ(kernels::ScratchChunkAllocs(), chunks_before);
}

TEST(ScratchArenaTest, TrainStepSteadyStateAllocatesNothing) {
  // The same property for a whole local-training step, as fl::TrainLocal
  // runs it (forward, cross-entropy, backward, clipping, SGD), of each
  // primary model the ws-grid benchmark trains: mobilenetv2-like
  // (cifar10), transformer-lite (agnews) and har-cnn (harbox).  Every
  // layer's outputs, caches and gradients come from the buffer pool.
  for (const char* task : {"cifar10", "agnews", "harbox"}) {
    SCOPED_TRACE(task);
    data::TaskConfig cfg;
    cfg.train_samples = 16;
    cfg.test_samples = 16;
    cfg.num_clients = 1;
    const data::Task t = data::MakeTask(task, cfg);
    Rng rng(17);
    const auto tm = models::MakeTaskModels(task);
    models::BuiltModel built = tm.primary->Build(models::BuildSpec{}, rng);
    Tensor x;
    std::vector<int> y;
    data::BatchIterator batches(t.train, 16, rng);
    ASSERT_TRUE(batches.Next(x, y));
    const fl::LocalTrainOptions options;
    nn::Sgd opt(*built.net,
                {options.lr, options.momentum, options.weight_decay});
    Tensor grad;
    auto step = [&] {
      kernels::ResetThreadScratch();
      opt.ZeroGrad();
      nn::SoftmaxCrossEntropy(built.net->Forward(x), y, grad);
      built.net->Backward(grad);
      opt.ClipGradNorm(options.grad_clip);
      opt.Step();
    };
    for (int warmup = 0; warmup < 2; ++warmup) step();
    const auto heap_before = Tensor::ThreadAllocStats().heap_allocs;
    const auto chunks_before = kernels::ScratchChunkAllocs();
    for (int s = 0; s < 3; ++s) step();
    EXPECT_EQ(Tensor::ThreadAllocStats().heap_allocs, heap_before);
    EXPECT_EQ(kernels::ScratchChunkAllocs(), chunks_before);
  }
}

TEST(ScratchArenaTest, PeakGaugeSeesThisThreadsArena) {
  kernels::ScratchScope scope;
  scope.Alloc(1 << 18);
  EXPECT_GE(kernels::ScratchPeakBytesAllThreads(),
            (std::size_t{1} << 18) * sizeof(float));
}

}  // namespace
}  // namespace mhbench
