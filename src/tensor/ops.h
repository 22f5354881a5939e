// Free-function tensor operations: GEMM variants, im2col for convolutions,
// softmax, and the gather primitive and coordinate-run resolution that
// sub-model extraction and masked federated aggregation are built on.
//
// The GEMM family routes through the packed kernel layer in
// tensor/gemm.h; the raw `*Into` / `*Acc` variants let layers stage
// temporaries in the per-thread scratch arena (tensor/scratch.h) instead of
// allocating fresh tensors every minibatch.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace mhbench::ops {

// C[m,n] = A[m,k] * B[k,n].
Tensor Matmul(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] * B[n,k]^T.
Tensor MatmulTransB(const Tensor& a, const Tensor& b);

// C[k,n] = A[m,k]^T * B[m,n].
Tensor MatmulTransA(const Tensor& a, const Tensor& b);

// Transpose of a rank-2 tensor.
Tensor Transpose2d(const Tensor& a);

// Row-wise softmax of logits [n, c].
Tensor SoftmaxRows(const Tensor& logits);

// Row-wise log-softmax of logits [n, c].
Tensor LogSoftmaxRows(const Tensor& logits);

// Index of the max element in each row of [n, c].
std::vector<int> ArgmaxRows(const Tensor& t);

// im2col for 2-D convolution, channel-major.  Input [N, C, H, W], or
// [N, C, L] as the unit-height case H = 1 (so too every input shape
// below); returns the column matrix [C*KH*KW, N*OH*OW] with zero padding
// (pad_h, pad_w) and stride `stride`.  Row p = (ch*KH + ky)*KW + kx is one kernel tap, in the
// flat order of a [out_c, C, KH, KW] weight; column r = (b*OH + oy)*OW + ox
// is one output pixel.  So W[out_c, C*KH*KW] · cols is the convolution as
// [out_c, N*OH*OW], whose (b, oc) slices are the NCHW output planes, and
// each (tap, b, oy) run of a row is a (strided) copy of one input line plus
// zero edges.
Tensor Im2Col(const Tensor& input, int kh, int kw, int stride, int pad_h,
              int pad_w);
inline Tensor Im2Col(const Tensor& input, int kh, int kw, int stride,
                     int pad) {
  return Im2Col(input, kh, kw, stride, pad, pad);
}

// Allocation-free im2col: writes the [C*KH*KW, N*OH*OW] column matrix into
// `out` (fully overwritten, padding included).  `out` must hold
// C*KH*KW * N*OH*OW floats.
void Im2ColInto(const Tensor& input, int kh, int kw, int stride, int pad_h,
                int pad_w, float* out);

// Adjoint of Im2Col: scatters columns [C*KH*KW, N*OH*OW] back into an
// input-shaped gradient [N, C, H, W].
Tensor Col2Im(const Tensor& cols, const Shape& input_shape, int kh, int kw,
              int stride, int pad_h, int pad_w);
inline Tensor Col2Im(const Tensor& cols, const Shape& input_shape, int kh,
                     int kw, int stride, int pad) {
  return Col2Im(cols, input_shape, kh, kw, stride, pad, pad);
}

// Accumulating raw-pointer adjoint: `out` (an input-shaped gradient,
// already initialized) receives `cols` ([C*KH*KW, N*OH*OW]) scattered back.
// The loop order is (b, ch, oy, ky, kx descending, ox), so every input
// element sums its contributions in ascending (oy, ox) order, the order a
// row-major [N*OH*OW, C*KH*KW] col2im visits them in: within one output
// row, a larger ox reaches a given input column through a smaller kx.
void Col2ImAcc(const float* cols, const Shape& input_shape, int kh, int kw,
               int stride, int pad_h, int pad_w, float* out);

// Per-dimension index selection.  `index[d]`, when present, lists the kept
// indices along dimension d (in order, duplicates allowed); absent means
// keep the whole dimension.  This is the sub-model *extraction* primitive.
// Trailing unindexed dimensions form contiguous blocks: GatherDims copies
// each with one memcpy, and AppendSelectedRuns emits each as one run.
using DimIndices = std::vector<std::optional<std::vector<int>>>;
Tensor GatherDims(const Tensor& src, const DimIndices& index);

// A contiguous stretch of a flat buffer: `length` floats from `offset`.
struct CoordRun {
  std::size_t offset = 0;
  std::size_t length = 0;
  bool operator==(const CoordRun&) const = default;
};

// The adjoint direction of GatherDims as coordinate runs: appends to `runs`
// the flat coordinates of a `full_shape` tensor that `index` selects, each
// shifted by `base`, in the order GatherDims reads them, so the k-th
// gathered element comes from the k-th coordinate the runs cover.  A run
// that starts where the previous one (from this call or an earlier one)
// ends extends it.  Checks what GatherDims checks (arity, index range,
// no empty index list) and returns the selected shape.  This is how a
// client upload names the global coordinates its values belong to
// (fl/aggregator.h).
Shape AppendSelectedRuns(const Shape& full_shape, const DimIndices& index,
                         std::size_t base, std::vector<CoordRun>& runs);

}  // namespace mhbench::ops
