#include "nn/attention.h"

#include <cmath>
#include <utility>

#include "obs/profile.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace mhbench::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int heads,
                                               Rng& rng)
    : d_model_(d_model),
      heads_(heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  MHB_CHECK_GT(heads, 0);
  MHB_CHECK_EQ(d_model % heads, 0) << "d_model must divide into heads";
}

// Per-(batch, head) blocks of the packed [N*L, d_model] projections are
// strided sub-matrices (row stride d_model), which the GEMM kernel consumes
// directly — no per-head copies.  The (b, h) blocks tile every output
// exactly once, so all block GEMMs run with beta = 0 into uninitialized
// storage.

namespace {

// One (batch, head) block at offset `off` of the packed projections:
// attn[l, l] = softmax(Q_blk · K_blk^T * scale), then O_blk = attn · V_blk
// into `po`.
void AttendBlock(const Scalar* pq, const Scalar* pk, const Scalar* pv,
                 std::size_t off, int l, int d, int dh, Scalar scale,
                 Scalar* attn, Scalar* po) {
  // S = Q_blk · K_blk^T (unscaled; the scale folds into the softmax).
  kernels::Gemm(false, true, l, l, dh, pq + off, d, pk + off, d, 0.0f, attn,
                l);
  for (int i = 0; i < l; ++i) {
    Scalar* arow = attn + static_cast<std::size_t>(i) * l;
    Scalar mx = -1e30f;
    for (int j = 0; j < l; ++j) mx = std::max(mx, arow[j] * scale);
    double sum = 0.0;
    for (int j = 0; j < l; ++j) {
      const Scalar e = std::exp(arow[j] * scale - mx);
      arow[j] = e;
      sum += e;
    }
    const Scalar inv = static_cast<Scalar>(1.0 / sum);
    for (int j = 0; j < l; ++j) arow[j] *= inv;
  }
  // O_blk = A · V_blk.
  kernels::Gemm(false, false, l, dh, l, attn, l, pv + off, d, 0.0f, po + off,
                d);
}

}  // namespace

Tensor MultiHeadSelfAttention::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("attention_fwd");
  MHB_CHECK_EQ(x.ndim(), 3);
  MHB_CHECK_EQ(x.dim(2), d_model_);
  const int n = x.dim(0), l = x.dim(1), d = d_model_, h = heads_;
  const int dh = d / h;
  cached_n_ = n;
  cached_l_ = l;

  const Tensor x2 = x.Reshape({n * l, d});
  cached_q_ = wq_.Forward(x2);
  cached_k_ = wk_.Forward(x2);
  cached_v_ = wv_.Forward(x2);
  cached_attn_ = Tensor::Uninitialized({n, h, l, l});
  cached_concat_ = Tensor::Uninitialized({n * l, d});

  const Scalar scale = 1.0f / std::sqrt(static_cast<Scalar>(dh));
  for (int b = 0; b < n; ++b) {
    for (int hd = 0; hd < h; ++hd) {
      const std::size_t off = static_cast<std::size_t>(b) * l * d +
                              static_cast<std::size_t>(hd) * dh;
      Scalar* attn = cached_attn_.data().data() +
                     (static_cast<std::size_t>(b) * h + hd) *
                         static_cast<std::size_t>(l) * l;
      AttendBlock(cached_q_.data().data(), cached_k_.data().data(),
                  cached_v_.data().data(), off, l, d, dh, scale, attn,
                  cached_concat_.data().data());
    }
  }
  return wo_.Forward(cached_concat_).Reshape({n, l, d});
}

Tensor MultiHeadSelfAttention::Infer(const Tensor& x, NormStats stats) const {
  obs::ProfileScope profile_scope("attention_fwd");
  MHB_CHECK_EQ(x.ndim(), 3);
  MHB_CHECK_EQ(x.dim(2), d_model_);
  const int n = x.dim(0), l = x.dim(1), d = d_model_, h = heads_;
  const int dh = d / h;

  const Tensor x2 = x.Reshape({n * l, d});
  const Tensor q = wq_.Infer(x2, stats);
  const Tensor k = wk_.Infer(x2, stats);
  const Tensor v = wv_.Infer(x2, stats);
  Tensor concat = Tensor::Uninitialized({n * l, d});

  // Attention probabilities are only needed block by block here.
  kernels::ScratchScope scratch;
  Scalar* attn = scratch.Alloc(static_cast<std::size_t>(l) * l);
  const Scalar scale = 1.0f / std::sqrt(static_cast<Scalar>(dh));
  for (int b = 0; b < n; ++b) {
    for (int hd = 0; hd < h; ++hd) {
      const std::size_t off = static_cast<std::size_t>(b) * l * d +
                              static_cast<std::size_t>(hd) * dh;
      AttendBlock(q.data().data(), k.data().data(), v.data().data(), off, l,
                  d, dh, scale, attn, concat.data().data());
    }
  }
  return wo_.Infer(concat, stats).Reshape({n, l, d});
}

Tensor MultiHeadSelfAttention::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("attention_bwd");
  MHB_CHECK(!cached_q_.empty()) << "Backward before Forward";
  const int n = cached_n_, l = cached_l_, d = d_model_, h = heads_;
  const int dh = d / h;
  MHB_CHECK(grad_out.shape() == Shape({n, l, d}));

  const Tensor g2 = grad_out.Reshape({n * l, d});
  const Tensor d_concat = wo_.Backward(g2);  // also accumulates dWo

  Tensor dq = Tensor::Uninitialized({n * l, d});
  Tensor dk = Tensor::Uninitialized({n * l, d});
  Tensor dv = Tensor::Uninitialized({n * l, d});
  const Scalar scale = 1.0f / std::sqrt(static_cast<Scalar>(dh));

  const Scalar* pq = cached_q_.data().data();
  const Scalar* pk = cached_k_.data().data();
  const Scalar* pv = cached_v_.data().data();
  const Scalar* pa = cached_attn_.data().data();
  const Scalar* pdo = d_concat.data().data();
  Scalar* pdq = dq.data().data();
  Scalar* pdk = dk.data().data();
  Scalar* pdv = dv.data().data();

  kernels::ScratchScope scratch;
  Scalar* ds = scratch.Alloc(static_cast<std::size_t>(l) * l);

  for (int b = 0; b < n; ++b) {
    const std::size_t blk = static_cast<std::size_t>(b) * l * d;
    for (int hd = 0; hd < h; ++hd) {
      const std::size_t off = blk + static_cast<std::size_t>(hd) * dh;
      const Scalar* attn = pa + (static_cast<std::size_t>(b) * h + hd) *
                                    static_cast<std::size_t>(l) * l;
      // dA = dO · V^T ;  dV = A^T · dO.
      kernels::Gemm(false, true, l, l, dh, pdo + off, d, pv + off, d, 0.0f,
                    ds, l);
      kernels::Gemm(true, false, l, dh, l, attn, l, pdo + off, d, 0.0f,
                    pdv + off, d);
      // Softmax jacobian in place: dS_ij = A_ij (dA_ij - dA_i·A_i) * scale.
      for (int i = 0; i < l; ++i) {
        const Scalar* arow = attn + static_cast<std::size_t>(i) * l;
        Scalar* dsrow = ds + static_cast<std::size_t>(i) * l;
        double dot = 0.0;
        for (int j = 0; j < l; ++j) {
          dot += static_cast<double>(dsrow[j]) * arow[j];
        }
        for (int j = 0; j < l; ++j) {
          dsrow[j] = arow[j] * (dsrow[j] - static_cast<Scalar>(dot)) * scale;
        }
      }
      // dQ = dS · K ;  dK = dS^T · Q.
      kernels::Gemm(false, false, l, dh, l, ds, l, pk + off, d, 0.0f,
                    pdq + off, d);
      kernels::Gemm(true, false, l, dh, l, ds, l, pq + off, d, 0.0f,
                    pdk + off, d);
    }
  }

  Tensor dx2 = wq_.Backward(dq);
  dx2.AddInPlace(wk_.Backward(dk));
  dx2.AddInPlace(wv_.Backward(dv));
  return std::move(dx2).Reshape({n, l, d});
}

void MultiHeadSelfAttention::CollectParams(const std::string& prefix,
                                           std::vector<NamedParam>& out) {
  wq_.CollectParams(JoinName(prefix, "wq"), out);
  wk_.CollectParams(JoinName(prefix, "wk"), out);
  wv_.CollectParams(JoinName(prefix, "wv"), out);
  wo_.CollectParams(JoinName(prefix, "wo"), out);
}

}  // namespace mhbench::nn
