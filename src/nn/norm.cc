#include "nn/norm.h"

#include <cmath>

#include "obs/profile.h"

namespace mhbench::nn {
namespace {

// Decomposes [N, C, ...] into (batch, channels, spatial) extents.
void SplitNCS(const Shape& shape, int& n, int& c, int& s) {
  MHB_CHECK_GE(static_cast<int>(shape.size()), 2);
  n = shape[0];
  c = shape[1];
  s = 1;
  for (std::size_t d = 2; d < shape.size(); ++d) s *= shape[d];
}

// Flat offset of (batch b, channel ch, spatial sp) in [N, C, S].
std::size_t Offset(int c, int s, int b, int ch, int sp) {
  return (static_cast<std::size_t>(b) * c + static_cast<std::size_t>(ch)) *
             static_cast<std::size_t>(s) +
         static_cast<std::size_t>(sp);
}

// Biased batch mean and variance of channel `ch`.
void BatchMoments(const Tensor& x, int ch, Scalar& mean, Scalar& var) {
  int n = 0, c = 0, s = 0;
  SplitNCS(x.shape(), n, c, s);
  const Scalar* px = x.data().data();
  const double m = static_cast<double>(n) * static_cast<double>(s);
  double sum = 0.0;
  for (int b = 0; b < n; ++b) {
    for (int sp = 0; sp < s; ++sp) sum += px[Offset(c, s, b, ch, sp)];
  }
  mean = static_cast<Scalar>(sum / m);
  double vsum = 0.0;
  for (int b = 0; b < n; ++b) {
    for (int sp = 0; sp < s; ++sp) {
      const double d = px[Offset(c, s, b, ch, sp)] - mean;
      vsum += d * d;
    }
  }
  var = static_cast<Scalar>(vsum / m);
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
  int n = 0, c = 0, s = 0;
  SplitNCS(x.shape(), n, c, s);
  MHB_CHECK_EQ(c, channels());
  cached_shape_ = x.shape();
  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_std_.assign(static_cast<std::size_t>(c), 1.0f);
  for (int ch = 0; ch < c; ++ch) {
    const auto chu = static_cast<std::size_t>(ch);
    Scalar mean, var;
    BatchMoments(x, ch, mean, var);
    running_mean_.value[chu] =
        (1 - momentum_) * running_mean_.value[chu] + momentum_ * mean;
    running_var_.value[chu] =
        (1 - momentum_) * running_var_.value[chu] + momentum_ * var;
    cached_std_[chu] = NormalizeChannel(x, ch, mean, var, y, &cached_xhat_);
  }
  return y;
}

Tensor BatchNorm::Infer(const Tensor& x, NormStats stats) const {
  obs::ProfileScope profile_scope("batchnorm_fwd");
  int n = 0, c = 0, s = 0;
  SplitNCS(x.shape(), n, c, s);
  MHB_CHECK_EQ(c, channels());
  Tensor y(x.shape());
  for (int ch = 0; ch < c; ++ch) {
    const auto chu = static_cast<std::size_t>(ch);
    Scalar mean = running_mean_.value[chu];
    Scalar var = running_var_.value[chu];
    if (stats == NormStats::kBatch) BatchMoments(x, ch, mean, var);
    NormalizeChannel(x, ch, mean, var, y, nullptr);
  }
  return y;
}

Scalar BatchNorm::NormalizeChannel(const Tensor& x, int ch, Scalar mean,
                                   Scalar var, Tensor& y,
                                   Tensor* xhat) const {
  int n = 0, c = 0, s = 0;
  SplitNCS(x.shape(), n, c, s);
  const auto chu = static_cast<std::size_t>(ch);
  const Scalar stdv = std::sqrt(var + eps_);
  const Scalar g = gamma_.value[chu];
  const Scalar bta = beta_.value[chu];
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  Scalar* pxh = xhat != nullptr ? xhat->data().data() : nullptr;
  for (int b = 0; b < n; ++b) {
    for (int sp = 0; sp < s; ++sp) {
      const std::size_t o = Offset(c, s, b, ch, sp);
      const Scalar xh = (px[o] - mean) / stdv;
      if (pxh != nullptr) pxh[o] = xh;
      py[o] = g * xh + bta;
    }
  }
  return stdv;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("batchnorm_bwd");
  MHB_CHECK(grad_out.shape() == cached_shape_);
  int n = 0, c = 0, s = 0;
  SplitNCS(cached_shape_, n, c, s);
  const double m = static_cast<double>(n) * s;

  Tensor gx(cached_shape_);
  const Scalar* pg = grad_out.data().data();
  const Scalar* pxh = cached_xhat_.data().data();
  Scalar* pgx = gx.data().data();

  for (int ch = 0; ch < c; ++ch) {
    const auto chu = static_cast<std::size_t>(ch);
    double sum_g = 0.0, sum_gxh = 0.0;
    for (int b = 0; b < n; ++b) {
      for (int sp = 0; sp < s; ++sp) {
        const std::size_t o = Offset(c, s, b, ch, sp);
        sum_g += pg[o];
        sum_gxh += static_cast<double>(pg[o]) * pxh[o];
      }
    }
    gamma_.grad[chu] += static_cast<Scalar>(sum_gxh);
    beta_.grad[chu] += static_cast<Scalar>(sum_g);

    const Scalar g = gamma_.value[chu];
    const Scalar inv_std = 1.0f / cached_std_[chu];
    // Standard batch-norm backward with batch statistics.
    for (int b = 0; b < n; ++b) {
      for (int sp = 0; sp < s; ++sp) {
        const std::size_t o = Offset(c, s, b, ch, sp);
        const double term = m * pg[o] - sum_g - pxh[o] * sum_gxh;
        pgx[o] = static_cast<Scalar>(g * inv_std * term / m);
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
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_.assign(x.numel() / static_cast<std::size_t>(dim()), 1.0f);
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
  Tensor y(x.shape());
  const Scalar* px = x.data().data();
  Scalar* py = y.data().data();
  Scalar* pxh = xhat != nullptr ? xhat->data().data() : nullptr;
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* xr = px + r * static_cast<std::size_t>(d);
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
    Scalar* yr = py + r * static_cast<std::size_t>(d);
    for (int j = 0; j < d; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const Scalar xh = static_cast<Scalar>((xr[j] - mean) * inv_std);
      if (pxh != nullptr) pxh[r * static_cast<std::size_t>(d) + ju] = xh;
      yr[j] = gamma_.value[ju] * xh + beta_.value[ju];
    }
  }
  return y;
}

Tensor LayerNorm::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("layernorm_bwd");
  MHB_CHECK(grad_out.shape() == cached_xhat_.shape());
  const int d = dim();
  const std::size_t rows = grad_out.numel() / static_cast<std::size_t>(d);
  Tensor gx(grad_out.shape());
  const Scalar* pg = grad_out.data().data();
  const Scalar* pxh = cached_xhat_.data().data();
  Scalar* pgx = gx.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* gr = pg + r * static_cast<std::size_t>(d);
    const Scalar* xhr = pxh + r * static_cast<std::size_t>(d);
    Scalar* gxr = pgx + r * static_cast<std::size_t>(d);
    double sum_g = 0.0, sum_gxh = 0.0;
    for (int j = 0; j < d; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const double gh = static_cast<double>(gr[j]) * gamma_.value[ju];
      sum_g += gh;
      sum_gxh += gh * xhr[j];
      gamma_.grad[ju] += gr[j] * xhr[j];
      beta_.grad[ju] += gr[j];
    }
    const double inv_std = cached_inv_std_[r];
    for (int j = 0; j < d; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const double gh = static_cast<double>(gr[j]) * gamma_.value[ju];
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
