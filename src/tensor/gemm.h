// mhbench::kernels — the high-performance GEMM layer.
//
// One kernel covers the whole Matmul/MatmulTransA/MatmulTransB family plus
// the fused epilogues the layers need (beta-accumulate into an existing
// gradient, bias broadcast), over strided row-major operands so callers
// never materialize transposes or reshapes.  The fast path is a classic
// cache-blocked, panel-packed, register-tiled design (fixed MC/KC/NC
// blocking with an MR x NR microkernel).  The microkernel variant (avx512 /
// avx2 / scalar) is picked once at startup from CPU features, overridable
// via MHB_KERNELS or SetIsa().  Every variant the compiler could build is
// present in the binary; dispatch never selects one the running CPU lacks.
//
// A call runs on the calling thread.  The FL engine parallelizes across
// clients, groups and eval batches instead, so each GEMM stays serial.
//
// Determinism: for a fixed build and chosen ISA variant, every code path
// accumulates the k dimension in ascending order with no data-dependent
// branching, so repeated calls are bit-identical regardless of --threads.
// Each element's value depends only on its own (i, j) products taken in
// ascending k within the same kKC blocks, and the micro-kernel's c += a·b is
// symmetric in a and b: computing C^T = op(B)^T·op(A)^T gives the same bits
// as C (nn/conv.h relies on this).
// The fast kernel is NOT bit-equal to the naive reference: it blocks the k
// dimension (partial sums associate as sum_block0 + sum_block1 instead of
// one running sum) and its vector variants fuse multiply-adds, which rounds
// differently from the separately-rounded mul-then-add the default flags
// produce.  Different ISA variants likewise agree only to rounding.  Tests
// therefore compare variants with a tight relative tolerance and reserve
// exact equality for run-to-run / cross-thread-count checks within one
// variant.
#pragma once

#include <cstdint>

namespace mhbench::kernels {

// Blocking constants, exposed for tests (shapes straddling these are the
// adversarial cases).
inline constexpr int kMR = 6;
inline constexpr int kNR = 16;
inline constexpr int kMC = 96;    // multiple of kMR
inline constexpr int kKC = 256;   // k slab
inline constexpr int kNC = 1024;  // multiple of kNR

// Runtime backend switch so benchmarks (and debugging) can route every
// consumer — conv, linear, attention — through the retained naive kernels.
enum class Backend { kFast, kNaive };
void SetBackend(Backend b);
Backend CurrentBackend();

// Micro-kernel ISA variants for the fast path, selected at startup from CPU
// features (best available wins) and overridable via MHB_KERNELS=
// naive|scalar|avx2|avx512|fast ("fast" = auto, "naive" flips the Backend
// instead).  An unavailable override falls back to the best available
// variant with a warning rather than crashing.
enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// Compiled into this binary AND supported by the running CPU.
bool IsaAvailable(Isa isa);
// Selects `isa` for subsequent fast-path calls; false (no change) when
// unavailable.  For tests and benchmarks; not thread-safe against in-flight
// Gemm calls.
bool SetIsa(Isa isa);
Isa CurrentIsa();
const char* IsaName(Isa isa);
// "naive" when the naive backend is selected, else the current ISA name —
// what manifests and bench reports record so diffs refuse to compare
// apples to oranges.
const char* KernelBackendName();

// C[m,n] = op(A)·op(B) + beta·C + bias.
//
//   op(A) is m x k: element (i,p) is a[i*lda + p], or a[p*lda + i] when
//   trans_a (i.e. A is stored k x m with leading dimension lda).  op(B) is
//   k x n, analogously with trans_b.  C is m x n with leading dimension
//   ldc.  When beta == 0, C is treated as write-only (it may be
//   uninitialized).  `bias`, when non-null, points at n floats broadcast
//   over rows — the fused replacement for the layers' per-element bias
//   loops.
//
// Degenerate dimensions are accepted: m == 0 or n == 0 is a no-op, k == 0
// computes the pure epilogue C = beta·C + bias (the empty contraction).
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
          int lda, const float* b, int ldb, float beta, float* c, int ldc,
          const float* bias = nullptr);

// The naive reference (triple loop, no packing, no blocking — and no
// data-dependent zero-skip branches: the old `if (a == 0) continue` made
// timing input-dependent and blocked vectorization, and no caller relied on
// its 0*inf/NaN masking).  Same contraction order as the fast path; retained
// for tests and for the --naive benchmark baseline.
void NaiveGemm(bool trans_a, bool trans_b, int m, int n, int k,
               const float* a, int lda, const float* b, int ldb, float beta,
               float* c, int ldc, const float* bias = nullptr);

// out[j] += sum_i rows[i*ld + j] — the column reduction behind every bias
// gradient (one pass, row-major streaming, auto-vectorizable).
void ColSumAcc(const float* rows, int nrows, int ncols, int ld, float* out);

// Process-wide count of multiply-add FLOPs executed by Gemm and NaiveGemm
// (2*m*n*k per call, both backends).  Monotone; the engine publishes round
// deltas as the `gemm_flops` counter.
std::uint64_t TotalGemmFlops();

// Calling thread's share of all GEMM FLOPs (monotone, no
// synchronization).  The per-op profiler differences it around a scope;
// using the global total there would attribute other threads' concurrent
// GEMMs to this scope.
std::uint64_t ThreadGemmFlops();

namespace internal {
// Uncounted naive implementation.  Lives in gemm_naive.cc, which is built
// with the project's default flags (no per-file -O3/-mavx512f/-mfma): the
// benchmark baseline stays what the pre-kernel-layer code compiled to.
void NaiveGemmImpl(bool trans_a, bool trans_b, int m, int n, int k,
                   const float* a, int lda, const float* b, int ldb,
                   float beta, float* c, int ldc, const float* bias);
}  // namespace internal

}  // namespace mhbench::kernels
