#include "nn/norm.h"

#include <algorithm>
#include <cmath>

#include "obs/profile.h"

namespace mhbench::nn {
namespace {

// A batch-norm input [N, C, ...] seen as [N, C, S]: channel ch of sample b
// is the run of S contiguous elements at At(b, ch).
struct NcsLayout {
  int n = 0, c = 0, s = 1;

  explicit NcsLayout(const Shape& shape) {
    MHB_CHECK_GE(static_cast<int>(shape.size()), 2);
    n = shape[0];
    c = shape[1];
    for (std::size_t d = 2; d < shape.size(); ++d) s *= shape[d];
  }
  std::size_t At(int b, int ch) const {
    return (static_cast<std::size_t>(b) * static_cast<std::size_t>(c) +
            static_cast<std::size_t>(ch)) *
           static_cast<std::size_t>(s);
  }
  double Count() const {
    return static_cast<double>(n) * static_cast<double>(s);
  }
};

// The per-channel reductions run over kChannelBlock adjacent channels at
// once.  Each channel's double sum is still one chain in (b, sp) order, so
// every result equals a channel-at-a-time walk; the block only keeps
// several independent chains in flight where a single one waits on the
// latency of each add.
constexpr int kChannelBlock = 2;

// Biased batch means and variances of channels [ch0, ch0 + K).
template <int K>
void MomentsOf(const Scalar* px, const NcsLayout& l, int ch0, Scalar* mean,
               Scalar* var) {
  const auto su = static_cast<std::size_t>(l.s);
  double sum[K] = {};
  for (int b = 0; b < l.n; ++b) {
    const Scalar* xr = px + l.At(b, ch0);
    for (std::size_t sp = 0; sp < su; ++sp) {
      for (int k = 0; k < K; ++k) sum[k] += xr[k * su + sp];
    }
  }
  for (int k = 0; k < K; ++k) mean[k] = static_cast<Scalar>(sum[k] / l.Count());
  double vsum[K] = {};
  for (int b = 0; b < l.n; ++b) {
    const Scalar* xr = px + l.At(b, ch0);
    for (std::size_t sp = 0; sp < su; ++sp) {
      for (int k = 0; k < K; ++k) {
        const double d = xr[k * su + sp] - mean[k];
        vsum[k] += d * d;
      }
    }
  }
  for (int k = 0; k < K; ++k) var[k] = static_cast<Scalar>(vsum[k] / l.Count());
}

// MomentsOf for the `count` (<= kChannelBlock) channels from ch0.
void BatchMoments(const Scalar* px, const NcsLayout& l, int ch0, int count,
                  Scalar* mean, Scalar* var) {
  if (count == kChannelBlock) {
    MomentsOf<kChannelBlock>(px, l, ch0, mean, var);
    return;
  }
  for (int k = 0; k < count; ++k) {
    MomentsOf<1>(px, l, ch0 + k, mean + k, var + k);
  }
}

// Backward's sums of g and g * x-hat over channels [ch0, ch0 + K).
template <int K>
void GradSumsOf(const Scalar* pg, const Scalar* pxh, const NcsLayout& l,
                int ch0, double* sum_g, double* sum_gxh) {
  const auto su = static_cast<std::size_t>(l.s);
  for (int k = 0; k < K; ++k) sum_g[k] = sum_gxh[k] = 0.0;
  for (int b = 0; b < l.n; ++b) {
    const std::size_t o = l.At(b, ch0);
    for (std::size_t sp = 0; sp < su; ++sp) {
      for (int k = 0; k < K; ++k) {
        const std::size_t e = o + k * su + sp;
        sum_g[k] += pg[e];
        sum_gxh[k] += static_cast<double>(pg[e]) * pxh[e];
      }
    }
  }
}

void GradSums(const Scalar* pg, const Scalar* pxh, const NcsLayout& l,
              int ch0, int count, double* sum_g, double* sum_gxh) {
  if (count == kChannelBlock) {
    GradSumsOf<kChannelBlock>(pg, pxh, l, ch0, sum_g, sum_gxh);
    return;
  }
  for (int k = 0; k < count; ++k) {
    GradSumsOf<1>(pg, pxh, l, ch0 + k, sum_g + k, sum_gxh + k);
  }
}

// Writes channel ch of y = gamma (x - mean) / std + beta, and of x-hat
// when `pxh` is non-null.
void NormalizeChannel(const Scalar* px, const NcsLayout& l, int ch,
                      Scalar mean, Scalar stdv, Scalar g, Scalar bta,
                      Scalar* py, Scalar* pxh) {
  for (int b = 0; b < l.n; ++b) {
    const std::size_t o = l.At(b, ch);
    for (std::size_t sp = 0; sp < static_cast<std::size_t>(l.s); ++sp) {
      const Scalar xh = (px[o + sp] - mean) / stdv;
      if (pxh != nullptr) pxh[o + sp] = xh;
      py[o + sp] = g * xh + bta;
    }
  }
}

}  // namespace

BatchNorm::BatchNorm(int channels, Scalar momentum, Scalar eps)
    : gamma_(Tensor({channels}, 1.0f)),
      beta_(Tensor({channels})),
      running_mean_(Tensor({channels})),
      running_var_(Tensor({channels}, 1.0f)),
      momentum_(momentum),
      eps_(eps) {
  MHB_CHECK_GT(channels, 0);
}

BatchNorm::BatchNorm(Tensor gamma, Tensor beta, Tensor running_mean,
                     Tensor running_var, Scalar momentum, Scalar eps)
    : gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      running_mean_(std::move(running_mean)),
      running_var_(std::move(running_var)),
      momentum_(momentum),
      eps_(eps) {
  const int c = gamma_.value.dim(0);
  MHB_CHECK_EQ(beta_.value.dim(0), c);
  MHB_CHECK_EQ(running_mean_.value.dim(0), c);
  MHB_CHECK_EQ(running_var_.value.dim(0), c);
}

Tensor BatchNorm::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("batchnorm_fwd");
  const NcsLayout l(x.shape());
  MHB_CHECK_EQ(l.c, channels());
  cached_shape_ = x.shape();
  Tensor y = Tensor::Uninitialized(x.shape());
  cached_xhat_.ResizeUninitialized(x.shape());
  cached_std_.resize(static_cast<std::size_t>(l.c));
  const Scalar* px = x.data().data();
  for (int ch0 = 0; ch0 < l.c; ch0 += kChannelBlock) {
    const int count = std::min(kChannelBlock, l.c - ch0);
    Scalar mean[kChannelBlock], var[kChannelBlock];
    BatchMoments(px, l, ch0, count, mean, var);
    for (int k = 0; k < count; ++k) {
      const auto chu = static_cast<std::size_t>(ch0 + k);
      running_mean_.value[chu] =
          (1 - momentum_) * running_mean_.value[chu] + momentum_ * mean[k];
      running_var_.value[chu] =
          (1 - momentum_) * running_var_.value[chu] + momentum_ * var[k];
      const Scalar stdv = std::sqrt(var[k] + eps_);
      cached_std_[chu] = stdv;
      NormalizeChannel(px, l, ch0 + k, mean[k], stdv, gamma_.value[chu],
                             beta_.value[chu], y.data().data(),
                             cached_xhat_.data().data());
    }
  }
  return y;
}

Tensor BatchNorm::Infer(const Tensor& x, NormStats stats) const {
  obs::ProfileScope profile_scope("batchnorm_fwd");
  const NcsLayout l(x.shape());
  MHB_CHECK_EQ(l.c, channels());
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  for (int ch0 = 0; ch0 < l.c; ch0 += kChannelBlock) {
    const int count = std::min(kChannelBlock, l.c - ch0);
    Scalar mean[kChannelBlock], var[kChannelBlock];
    if (stats == NormStats::kBatch) {
      BatchMoments(px, l, ch0, count, mean, var);
    } else {
      for (int k = 0; k < count; ++k) {
        mean[k] = running_mean_.value[static_cast<std::size_t>(ch0 + k)];
        var[k] = running_var_.value[static_cast<std::size_t>(ch0 + k)];
      }
    }
    for (int k = 0; k < count; ++k) {
      const auto chu = static_cast<std::size_t>(ch0 + k);
      NormalizeChannel(px, l, ch0 + k, mean[k],
                              std::sqrt(var[k] + eps_), gamma_.value[chu],
                              beta_.value[chu], y.data().data(), nullptr);
    }
  }
  return y;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("batchnorm_bwd");
  MHB_CHECK(grad_out.shape() == cached_shape_);
  const NcsLayout l(cached_shape_);
  const double m = l.Count();

  Tensor gx = Tensor::Uninitialized(cached_shape_);
  const Scalar* pg = grad_out.data().data();
  const Scalar* pxh = cached_xhat_.data().data();
  Scalar* pgx = gx.data().data();

  for (int ch0 = 0; ch0 < l.c; ch0 += kChannelBlock) {
    const int count = std::min(kChannelBlock, l.c - ch0);
    double sum_g[kChannelBlock], sum_gxh[kChannelBlock];
    GradSums(pg, pxh, l, ch0, count, sum_g, sum_gxh);
    for (int k = 0; k < count; ++k) {
      const auto chu = static_cast<std::size_t>(ch0 + k);
      gamma_.grad[chu] += static_cast<Scalar>(sum_gxh[k]);
      beta_.grad[chu] += static_cast<Scalar>(sum_g[k]);

      const Scalar g = gamma_.value[chu];
      const Scalar inv_std = 1.0f / cached_std_[chu];
      // Standard batch-norm backward with batch statistics.
      for (int b = 0; b < l.n; ++b) {
        const std::size_t o = l.At(b, ch0 + k);
        for (std::size_t sp = 0; sp < static_cast<std::size_t>(l.s); ++sp) {
          const std::size_t e = o + sp;
          const double term = m * pg[e] - sum_g[k] - pxh[e] * sum_gxh[k];
          pgx[e] = static_cast<Scalar>(g * inv_std * term / m);
        }
      }
    }
  }
  return gx;
}

void BatchNorm::CollectParams(const std::string& prefix,
                              std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "gamma"), &gamma_});
  out.push_back({JoinName(prefix, "beta"), &beta_});
  out.push_back({JoinName(prefix, "running_mean"), &running_mean_});
  out.push_back({JoinName(prefix, "running_var"), &running_var_});
}

LayerNorm::LayerNorm(int dim, Scalar eps)
    : gamma_(Tensor({dim}, 1.0f)), beta_(Tensor({dim})), eps_(eps) {
  MHB_CHECK_GT(dim, 0);
}

Tensor LayerNorm::Forward(const Tensor& x) {
  obs::ProfileScope profile_scope("layernorm_fwd");
  cached_xhat_.ResizeUninitialized(x.shape());
  cached_inv_std_.resize(x.numel() / static_cast<std::size_t>(dim()));
  return Normalize(x, &cached_xhat_, cached_inv_std_.data());
}

Tensor LayerNorm::Infer(const Tensor& x, NormStats /*stats*/) const {
  obs::ProfileScope profile_scope("layernorm_fwd");
  return Normalize(x, nullptr, nullptr);
}

Tensor LayerNorm::Normalize(const Tensor& x, Tensor* xhat,
                            Scalar* inv_stds) const {
  MHB_CHECK_GE(x.ndim(), 2);
  const int d = x.dim(x.ndim() - 1);
  MHB_CHECK_EQ(d, dim());
  const std::size_t rows = x.numel() / static_cast<std::size_t>(d);
  const auto du = static_cast<std::size_t>(d);
  Tensor y = Tensor::Uninitialized(x.shape());
  const Scalar* px = x.data().data();
  const Scalar* pgamma = gamma_.value.data().data();
  const Scalar* pbeta = beta_.value.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* xr = px + r * du;
    double sum = 0.0;
    for (int j = 0; j < d; ++j) sum += xr[j];
    const double mean = sum / d;
    double vsum = 0.0;
    for (int j = 0; j < d; ++j) {
      const double diff = xr[j] - mean;
      vsum += diff * diff;
    }
    const double inv_std = 1.0 / std::sqrt(vsum / d + eps_);
    if (inv_stds != nullptr) inv_stds[r] = static_cast<Scalar>(inv_std);
    Scalar* yr = y.data().data() + r * du;
    Scalar* xhr = xhat != nullptr ? xhat->data().data() + r * du : nullptr;
    for (std::size_t j = 0; j < du; ++j) {
      const Scalar xh = static_cast<Scalar>((xr[j] - mean) * inv_std);
      if (xhr != nullptr) xhr[j] = xh;
      yr[j] = pgamma[j] * xh + pbeta[j];
    }
  }
  return y;
}

Tensor LayerNorm::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("layernorm_bwd");
  MHB_CHECK(grad_out.shape() == cached_xhat_.shape());
  const int d = dim();
  const auto du = static_cast<std::size_t>(d);
  const std::size_t rows = grad_out.numel() / du;
  Tensor gx = Tensor::Uninitialized(grad_out.shape());
  const Scalar* pg = grad_out.data().data();
  const Scalar* pxh = cached_xhat_.data().data();
  const Scalar* pgamma = gamma_.value.data().data();
  Scalar* pdgamma = gamma_.grad.data().data();
  Scalar* pdbeta = beta_.grad.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* gr = pg + r * du;
    const Scalar* xhr = pxh + r * du;
    Scalar* gxr = gx.data().data() + r * du;
    double sum_g = 0.0, sum_gxh = 0.0;
    for (std::size_t j = 0; j < du; ++j) {
      const double gh = static_cast<double>(gr[j]) * pgamma[j];
      sum_g += gh;
      sum_gxh += gh * xhr[j];
    }
    // The parameter gradients are independent of the row sums, so they
    // take their own (vectorizable) pass; each still adds rows in order.
    for (std::size_t j = 0; j < du; ++j) {
      pdgamma[j] += gr[j] * xhr[j];
      pdbeta[j] += gr[j];
    }
    const double inv_std = cached_inv_std_[r];
    for (std::size_t j = 0; j < du; ++j) {
      const double gh = static_cast<double>(gr[j]) * pgamma[j];
      gxr[j] = static_cast<Scalar>(
          inv_std * (gh - sum_g / d - xhr[j] * sum_gxh / d));
    }
  }
  return gx;
}

void LayerNorm::CollectParams(const std::string& prefix,
                              std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "gamma"), &gamma_});
  out.push_back({JoinName(prefix, "beta"), &beta_});
}

}  // namespace mhbench::nn
