#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/error.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "tensor/gemm_kernels.h"
#include "tensor/scratch.h"

namespace mhbench::kernels {
namespace {

std::atomic<std::uint64_t> g_flops{0};
thread_local std::uint64_t tl_flops = 0;

std::atomic<core::ThreadPool*> g_gemm_pool{nullptr};

// Threaded macro-tile path engages only at or above this many flops
// (2*m*n*k ≈ a 128^3 matmul): below it, ParallelFor dispatch overhead beats
// the parallel win.  Engagement never changes results (gemm.h), only wall
// time, so the threshold needs no cross-machine tuning.
constexpr std::uint64_t kThreadedMinFlops = 4ull << 20;

// __builtin_cpu_supports requires a literal argument, hence one wrapper
// per feature rather than a CpuHas(const char*) helper.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
bool CpuHasFma() { return __builtin_cpu_supports("fma"); }
bool CpuHasAvx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool CpuHasAvx2() { return false; }
bool CpuHasFma() { return false; }
bool CpuHasAvx512f() { return false; }
#endif

bool TileAvailable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      // The TU is compiled -mavx2 -mfma as a unit (src/CMakeLists.txt), so
      // runtime eligibility requires both features.
      return detail::Avx2TileCompiled() && CpuHasAvx2() && CpuHasFma();
    case Isa::kAvx512:
      return detail::Avx512TileCompiled() && CpuHasAvx512f();
  }
  return false;
}

Isa BestIsa() {
  if (TileAvailable(Isa::kAvx512)) return Isa::kAvx512;
  if (TileAvailable(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

detail::MicroKernelFn TileFor(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return detail::MicroKernelAvx512;
    case Isa::kAvx2:
      return detail::MicroKernelAvx2;
    case Isa::kScalar:
      break;
  }
  return detail::MicroKernelScalar;
}

bool ParseIsaName(const char* text, Isa* out) {
  if (std::strcmp(text, "scalar") == 0) {
    *out = Isa::kScalar;
  } else if (std::strcmp(text, "avx2") == 0) {
    *out = Isa::kAvx2;
  } else if (std::strcmp(text, "avx512") == 0) {
    *out = Isa::kAvx512;
  } else {
    return false;
  }
  return true;
}

struct KernelChoice {
  Backend backend;
  Isa isa;
};

// Resolves MHB_KERNELS once at startup (cold path — a process makes this
// decision exactly once, before any kernel runs).
KernelChoice InitialChoice() {
  KernelChoice choice{Backend::kFast, BestIsa()};
  const char* env = std::getenv("MHB_KERNELS");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "fast") == 0) {
    return choice;
  }
  if (std::strcmp(env, "naive") == 0) {
    choice.backend = Backend::kNaive;
    return choice;
  }
  Isa want;
  if (!ParseIsaName(env, &want)) {
    MHB_LOG_WARN << "MHB_KERNELS=" << env
                 << " not recognized (naive|scalar|avx2|avx512|fast); "
                    "using fast/"
                 << IsaName(choice.isa);
    return choice;
  }
  if (!TileAvailable(want)) {
    MHB_LOG_WARN << "MHB_KERNELS=" << env
                 << " unavailable on this host/build; using "
                 << IsaName(choice.isa);
    return choice;
  }
  choice.isa = want;
  return choice;
}

// Function-local statics, not namespace-scope globals: InitialChoice()
// logs when MHB_KERNELS is invalid, and a namespace-scope initializer
// could run before the logger's own cross-TU static state (the warning
// would be silently dropped).  First touch is the first kernel/query
// call, which is always after main() has started.
const KernelChoice& ResolvedChoice() {
  static const KernelChoice choice = InitialChoice();
  return choice;
}

std::atomic<Backend>& BackendAtomic() {
  static std::atomic<Backend> backend{ResolvedChoice().backend};
  return backend;
}

std::atomic<Isa>& IsaAtomic() {
  static std::atomic<Isa> isa{ResolvedChoice().isa};
  return isa;
}

// op(A)(i, p) for a row-major buffer with leading dimension lda.
inline float At(const float* a, int lda, bool trans, int i, int p) {
  return trans ? a[static_cast<std::size_t>(p) * lda + i]
               : a[static_cast<std::size_t>(i) * lda + p];
}

// Packs the mc x kc block of op(A) at (ic, pc) into row panels of kMR:
// panel r holds, for each p in [0, kc), kMR consecutive elements of column
// p (zero-padded past mc) so the microkernel streams it linearly.  Because
// kMC is a multiple of kMR, packing the whole m range at once (threaded
// path) produces byte-identical panels to packing each MC block separately
// (serial path).
void PackA(bool trans, const float* a, int lda, int ic, int pc, int mc,
           int kc, float* ap) {
  for (int i0 = 0; i0 < mc; i0 += kMR) {
    const int mr = std::min(kMR, mc - i0);
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < mr; ++r) {
        *ap++ = At(a, lda, trans, ic + i0 + r, pc + p);
      }
      for (int r = mr; r < kMR; ++r) *ap++ = 0.0f;
    }
  }
}

// Packs the kc x nc block of op(B) at (pc, jc) into column panels of kNR.
void PackB(bool trans, const float* b, int ldb, int pc, int jc, int kc,
           int nc, float* bp) {
  for (int j0 = 0; j0 < nc; j0 += kNR) {
    const int nr = std::min(kNR, nc - j0);
    if (!trans) {
      // op(B)(p, j) = b[p*ldb + j]: each panel row is a contiguous copy.
      for (int p = 0; p < kc; ++p) {
        const float* src =
            b + static_cast<std::size_t>(pc + p) * ldb + jc + j0;
        std::memcpy(bp, src, static_cast<std::size_t>(nr) * sizeof(float));
        for (int q = nr; q < kNR; ++q) bp[q] = 0.0f;
        bp += kNR;
      }
    } else {
      // op(B)(p, j) = b[j*ldb + p]: strided gather.
      for (int p = 0; p < kc; ++p) {
        for (int q = 0; q < nr; ++q) {
          bp[q] = b[static_cast<std::size_t>(jc + j0 + q) * ldb + pc + p];
        }
        for (int q = nr; q < kNR; ++q) bp[q] = 0.0f;
        bp += kNR;
      }
    }
  }
}

// One register tile's writeback.  The first/beta/bias decisions are
// tile-constant, so each branch body is a plain vectorizable loop; the
// arithmetic order per element matches the fused form: (acc [+ C]) first,
// bias last.
inline void StoreTile(const float* acc, float* cd, int ldc, int mr, int nr,
                      bool first, bool last, float beta,
                      const float* bias_j) {
  for (int r = 0; r < mr; ++r) {
    float* crow = cd + static_cast<std::size_t>(r) * ldc;
    const float* accrow = acc + r * kNR;
    if (!first) {
      for (int q = 0; q < nr; ++q) crow[q] = accrow[q] + crow[q];
    } else if (beta != 0.0f) {
      for (int q = 0; q < nr; ++q) crow[q] = accrow[q] + beta * crow[q];
    } else {
      for (int q = 0; q < nr; ++q) crow[q] = accrow[q];
    }
  }
  if (last && bias_j != nullptr) {
    for (int r = 0; r < mr; ++r) {
      float* crow = cd + static_cast<std::size_t>(r) * ldc;
      for (int q = 0; q < nr; ++q) crow[q] += bias_j[q];
    }
  }
}

// Computes the output tiles of one packed row-block against the column
// stripe [jr0, jr1) of the current macro-slab.  `ap` points at the kMR row
// panels for rows [ic, ic+mc); `bp` at the kNR column panels for columns
// [jc, jc+nc).  Shared verbatim by the serial path (jr0 = 0, jr1 = nc) and
// each threaded task, so both produce byte-identical tiles.
void ComputeTiles(detail::MicroKernelFn tile, const float* ap,
                  const float* bp, int kc, int ic, int mc, int jc, int jr0,
                  int jr1, bool first, bool last, float beta,
                  const float* bias, float* c, int ldc) {
  alignas(64) float acc[kMR * kNR];
  for (int jr = jr0; jr < jr1; jr += kNR) {
    const int nr = std::min(kNR, jr1 - jr);
    const float* bpanel = bp + static_cast<std::size_t>(jr / kNR) * kc * kNR;
    for (int ir = 0; ir < mc; ir += kMR) {
      const int mr = std::min(kMR, mc - ir);
      const float* apanel =
          ap + static_cast<std::size_t>(ir / kMR) * kc * kMR;
      tile(kc, apanel, bpanel, acc);
      float* cd = c + static_cast<std::size_t>(ic + ir) * ldc + jc + jr;
      StoreTile(acc, cd, ldc, mr, nr, first, last, beta,
                bias != nullptr ? bias + jc + jr : nullptr);
    }
  }
}

void FastGemmSerial(bool trans_a, bool trans_b, int m, int n, int k,
                    const float* a, int lda, const float* b, int ldb,
                    float beta, float* c, int ldc, const float* bias) {
  const detail::MicroKernelFn tile = TileFor(CurrentIsa());
  ScratchScope scratch;
  float* const ap = scratch.Alloc(static_cast<std::size_t>(kMC) * kKC);
  float* const bp = scratch.Alloc(static_cast<std::size_t>(kKC) * kNC);

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      PackB(trans_b, b, ldb, pc, jc, kc, nc, bp);
      for (int ic = 0; ic < m; ic += kMC) {
        const int mc = std::min(kMC, m - ic);
        PackA(trans_a, a, lda, ic, pc, mc, kc, ap);
        ComputeTiles(tile, ap, bp, kc, ic, mc, jc, 0, nc, first, last, beta,
                     bias, c, ldc);
      }
    }
  }
}

// Fixed tile→task ownership map: within each (jc, pc) macro-slab the
// calling thread packs A (all row panels) and B (the whole column slab)
// once, then the ceil(m/kMC) x ceil(nc/kJRB) grid of output tiles is
// distributed over the pool.  Each tile is computed whole by exactly one
// task from the same packed panels with the same k-ascending contraction
// the serial path uses, and no two tasks write the same output element —
// so which worker runs which task (ParallelFor hands out indices
// dynamically) cannot affect any value, only wall time.
void FastGemmThreaded(core::ThreadPool* pool, bool trans_a, bool trans_b,
                      int m, int n, int k, const float* a, int lda,
                      const float* b, int ldb, float beta, float* c, int ldc,
                      const float* bias) {
  const detail::MicroKernelFn tile = TileFor(CurrentIsa());
  ScratchScope scratch;
  const std::size_t num_panels =
      static_cast<std::size_t>((m + kMR - 1) / kMR);
  float* const ap = scratch.Alloc(num_panels * kMR * kKC);
  float* const bp = scratch.Alloc(static_cast<std::size_t>(kKC) * kNC);

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      PackB(trans_b, b, ldb, pc, jc, kc, nc, bp);
      PackA(trans_a, a, lda, 0, pc, m, kc, ap);
      const int n_ic = (m + kMC - 1) / kMC;
      const int n_stripes = (nc + kJRB - 1) / kJRB;
      core::ParallelFor(
          pool, static_cast<std::size_t>(n_ic) * n_stripes,
          [&](std::size_t t) {
            const int ic = static_cast<int>(t / n_stripes) * kMC;
            const int mc = std::min(kMC, m - ic);
            const int jr0 = static_cast<int>(t % n_stripes) * kJRB;
            const int jr1 = std::min(jr0 + kJRB, nc);
            ComputeTiles(tile,
                         ap + static_cast<std::size_t>(ic / kMR) * kc * kMR,
                         bp, kc, ic, mc, jc, jr0, jr1, first, last, beta,
                         bias, c, ldc);
          });
    }
  }
}

void FastGemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
              int lda, const float* b, int ldb, float beta, float* c, int ldc,
              const float* bias) {
  core::ThreadPool* const pool = g_gemm_pool.load(std::memory_order_relaxed);
  const std::uint64_t flops = 2ull * static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(k);
  // More than one tile task must exist for threading to buy anything.
  const bool multi_tile = m > kMC || std::min(n, kNC) > kJRB;
  if (pool != nullptr && pool->num_workers() > 0 &&
      !core::InParallelRegion() && flops >= kThreadedMinFlops &&
      multi_tile) {
    FastGemmThreaded(pool, trans_a, trans_b, m, n, k, a, lda, b, ldb, beta,
                     c, ldc, bias);
  } else {
    FastGemmSerial(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c, ldc,
                   bias);
  }
}

// The k == 0 epilogue shared by both entry points: C = beta·C + bias.
void ScaleBiasEpilogue(int m, int n, float beta, float* c, int ldc,
                       const float* bias) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (beta == 0.0f) {
      for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    } else {
      for (int j = 0; j < n; ++j) crow[j] = beta * crow[j];
    }
    if (bias != nullptr) {
      for (int j = 0; j < n; ++j) crow[j] += bias[j];
    }
  }
}

// Counts 2*m*n*k into the global total and the calling thread's total.
void CountGemmFlops(int m, int n, int k) {
  const std::uint64_t flops = 2ull * static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(k);
  g_flops.fetch_add(flops, std::memory_order_relaxed);
  tl_flops += flops;
}

}  // namespace

void SetBackend(Backend b) { BackendAtomic().store(b, std::memory_order_relaxed); }

Backend CurrentBackend() { return BackendAtomic().load(std::memory_order_relaxed); }

bool IsaAvailable(Isa isa) { return TileAvailable(isa); }

bool SetIsa(Isa isa) {
  if (!TileAvailable(isa)) return false;
  IsaAtomic().store(isa, std::memory_order_relaxed);
  return true;
}

Isa CurrentIsa() { return IsaAtomic().load(std::memory_order_relaxed); }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

const char* KernelBackendName() {
  return CurrentBackend() == Backend::kNaive ? "naive" : IsaName(CurrentIsa());
}

core::ThreadPool* SetGemmThreadPool(core::ThreadPool* pool) {
  return g_gemm_pool.exchange(pool, std::memory_order_relaxed);
}

core::ThreadPool* GemmThreadPool() {
  return g_gemm_pool.load(std::memory_order_relaxed);
}

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
          int lda, const float* b, int ldb, float beta, float* c, int ldc,
          const float* bias) {
  MHB_CHECK(m >= 0 && n >= 0 && k >= 0)
      << "gemm dims" << m << n << k << "must be non-negative";
  if (m == 0 || n == 0) return;
  if (k == 0) {
    ScaleBiasEpilogue(m, n, beta, c, ldc, bias);
    return;
  }
  CountGemmFlops(m, n, k);
  if (CurrentBackend() == Backend::kNaive) {
    internal::NaiveGemmImpl(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c,
                            ldc, bias);
  } else {
    FastGemm(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c, ldc, bias);
  }
}

void NaiveGemm(bool trans_a, bool trans_b, int m, int n, int k,
               const float* a, int lda, const float* b, int ldb, float beta,
               float* c, int ldc, const float* bias) {
  MHB_CHECK(m >= 0 && n >= 0 && k >= 0)
      << "gemm dims" << m << n << k << "must be non-negative";
  if (m == 0 || n == 0) return;
  if (k == 0) {
    ScaleBiasEpilogue(m, n, beta, c, ldc, bias);
    return;
  }
  CountGemmFlops(m, n, k);
  internal::NaiveGemmImpl(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c,
                          ldc, bias);
}

void ColSumAcc(const float* rows, int nrows, int ncols, int ld, float* out) {
  for (int i = 0; i < nrows; ++i) {
    const float* row = rows + static_cast<std::size_t>(i) * ld;
    for (int j = 0; j < ncols; ++j) out[j] += row[j];
  }
}

std::uint64_t TotalGemmFlops() {
  return g_flops.load(std::memory_order_relaxed);
}

std::uint64_t ThreadGemmFlops() { return tl_flops; }

}  // namespace mhbench::kernels
