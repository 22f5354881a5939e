#include "nn/composite.h"

namespace mhbench::nn {

Sequential::Sequential(std::vector<ModulePtr> modules)
    : modules_(std::move(modules)) {
  for (const auto& m : modules_) MHB_CHECK(m != nullptr);
}

Module& Sequential::Add(ModulePtr m) {
  MHB_CHECK(m != nullptr);
  modules_.push_back(std::move(m));
  return *modules_.back();
}

Tensor Sequential::Forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& m : modules_) cur = m->Forward(cur);
  return cur;
}

Tensor Sequential::Infer(const Tensor& x, NormStats stats) const {
  Tensor cur = x;
  for (const auto& m : modules_) cur = m->Infer(cur, stats);
  return cur;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::CollectParams(const std::string& prefix,
                               std::vector<NamedParam>& out) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    modules_[i]->CollectParams(JoinName(prefix, std::to_string(i)), out);
  }
}

Residual::Residual(ModulePtr body, ModulePtr shortcut_or_null)
    : body_(std::move(body)), shortcut_(std::move(shortcut_or_null)) {
  MHB_CHECK(body_ != nullptr);
}

namespace {

void AddIdentitySkip(Tensor& y, const Tensor& x) {
  MHB_CHECK(y.shape() == x.shape())
      << "identity skip needs matching shapes:" << ShapeToString(y.shape())
      << "vs" << ShapeToString(x.shape());
  y.AddInPlace(x);
}

}  // namespace

Tensor Residual::Forward(const Tensor& x) {
  Tensor y = body_->Forward(x);
  if (shortcut_ != nullptr) {
    y.AddInPlace(shortcut_->Forward(x));
  } else {
    AddIdentitySkip(y, x);
  }
  return y;
}

Tensor Residual::Infer(const Tensor& x, NormStats stats) const {
  Tensor y = body_->Infer(x, stats);
  if (shortcut_ != nullptr) {
    y.AddInPlace(shortcut_->Infer(x, stats));
  } else {
    AddIdentitySkip(y, x);
  }
  return y;
}

Tensor Residual::Backward(const Tensor& grad_out) {
  Tensor gx = body_->Backward(grad_out);
  if (shortcut_ != nullptr) {
    gx.AddInPlace(shortcut_->Backward(grad_out));
  } else {
    gx.AddInPlace(grad_out);
  }
  return gx;
}

void Residual::CollectParams(const std::string& prefix,
                             std::vector<NamedParam>& out) {
  body_->CollectParams(JoinName(prefix, "body"), out);
  if (shortcut_ != nullptr) {
    shortcut_->CollectParams(JoinName(prefix, "shortcut"), out);
  }
}

ConcatBranches::ConcatBranches(std::vector<ModulePtr> branches)
    : branches_(std::move(branches)) {
  MHB_CHECK(!branches_.empty());
  for (const auto& b : branches_) MHB_CHECK(b != nullptr);
}

namespace {

// Concatenates branch outputs along dim 1; all must agree on every other
// dimension.
Tensor ConcatChannels(const std::vector<Tensor>& outs) {
  int total_c = 0;
  for (const Tensor& o : outs) {
    MHB_CHECK_GE(o.ndim(), 2);
    Shape got = o.shape();
    Shape first = outs.front().shape();
    got[1] = 0;
    first[1] = 0;
    MHB_CHECK(got == first) << "branch outputs differ beyond the channel dim";
    total_c += o.dim(1);
  }
  Shape out_shape = outs.front().shape();
  out_shape[1] = total_c;
  Tensor y(out_shape);
  const int n = out_shape[0];
  const std::size_t spatial =
      outs.front().numel() /
      (static_cast<std::size_t>(n) * outs.front().dim(1));
  Scalar* py = y.data().data();
  for (int b = 0; b < n; ++b) {
    std::size_t ch_base = 0;
    for (const Tensor& o : outs) {
      const int ck = o.dim(1);
      const Scalar* src =
          o.data().data() + static_cast<std::size_t>(b) * ck * spatial;
      Scalar* dst = py + (static_cast<std::size_t>(b) * total_c + ch_base) *
                             spatial;
      for (std::size_t e = 0; e < static_cast<std::size_t>(ck) * spatial;
           ++e) {
        dst[e] = src[e];
      }
      ch_base += static_cast<std::size_t>(ck);
    }
  }
  return y;
}

}  // namespace

Tensor ConcatBranches::Forward(const Tensor& x) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  for (auto& b : branches_) outs.push_back(b->Forward(x));
  Tensor y = ConcatChannels(outs);
  cached_channels_.clear();
  for (const Tensor& o : outs) cached_channels_.push_back(o.dim(1));
  return y;
}

Tensor ConcatBranches::Infer(const Tensor& x, NormStats stats) const {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  for (const auto& b : branches_) outs.push_back(b->Infer(x, stats));
  return ConcatChannels(outs);
}

Tensor ConcatBranches::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_channels_.empty()) << "Backward before Forward";
  const int n = grad_out.dim(0);
  int total_c = 0;
  for (int c : cached_channels_) total_c += c;
  MHB_CHECK_EQ(grad_out.dim(1), total_c);
  const std::size_t spatial =
      grad_out.numel() / (static_cast<std::size_t>(n) * total_c);

  Tensor gx;
  std::size_t ch_base = 0;
  for (std::size_t k = 0; k < branches_.size(); ++k) {
    const int ck = cached_channels_[k];
    Shape gshape = grad_out.shape();
    gshape[1] = ck;
    Tensor g(gshape);
    for (int b = 0; b < n; ++b) {
      const Scalar* src =
          grad_out.data().data() +
          (static_cast<std::size_t>(b) * total_c + ch_base) * spatial;
      Scalar* dst =
          g.data().data() + static_cast<std::size_t>(b) * ck * spatial;
      for (std::size_t e = 0; e < static_cast<std::size_t>(ck) * spatial;
           ++e) {
        dst[e] = src[e];
      }
    }
    Tensor branch_gx = branches_[k]->Backward(g);
    if (gx.empty()) {
      gx = std::move(branch_gx);
    } else {
      gx.AddInPlace(branch_gx);
    }
    ch_base += static_cast<std::size_t>(ck);
  }
  return gx;
}

void ConcatBranches::CollectParams(const std::string& prefix,
                                   std::vector<NamedParam>& out) {
  for (std::size_t k = 0; k < branches_.size(); ++k) {
    branches_[k]->CollectParams(
        JoinName(prefix, "branch" + std::to_string(k)), out);
  }
}

Tensor Flatten::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  return Infer(x, NormStats::kBatch);
}

Tensor Flatten::Infer(const Tensor& x, NormStats /*stats*/) const {
  MHB_CHECK_GE(x.ndim(), 2);
  const int n = x.dim(0);
  const int rest = static_cast<int>(x.numel() / static_cast<std::size_t>(n));
  return x.Reshape({n, rest});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  MHB_CHECK(!cached_input_shape_.empty());
  return grad_out.Reshape(cached_input_shape_);
}

}  // namespace mhbench::nn
