#include "models/model_spec.h"

#include <cmath>
#include <utility>

#include "obs/profile.h"

namespace mhbench::models {

std::vector<int> BuildSpec::ChannelIndices(int full) const {
  const int keep = ScaledCount(full, width_ratio);
  if (rolling) return RollingIndices(full, keep, width_offset % full);
  return PrefixIndices(full, keep);
}

int BuildSpec::KeptBlocks(int total) const {
  MHB_CHECK_GT(total, 0);
  MHB_CHECK_GT(depth_ratio, 0.0);
  MHB_CHECK_LE(depth_ratio, 1.0);
  const int keep = static_cast<int>(std::ceil(depth_ratio * total));
  return std::max(1, std::min(total, keep));
}

TrunkModel& BuiltModel::trunk() const {
  auto* t = dynamic_cast<TrunkModel*>(net.get());
  MHB_CHECK(t != nullptr) << "BuiltModel does not hold a TrunkModel";
  return *t;
}

TrunkModel::TrunkModel(nn::ModulePtr stem, std::vector<nn::ModulePtr> blocks,
                       std::vector<int> exit_blocks,
                       std::vector<nn::ModulePtr> heads,
                       std::vector<std::string> block_names,
                       std::vector<std::string> head_names)
    : stem_(std::move(stem)),
      blocks_(std::move(blocks)),
      exit_blocks_(std::move(exit_blocks)),
      heads_(std::move(heads)),
      block_names_(std::move(block_names)),
      head_names_(std::move(head_names)) {
  MHB_CHECK(stem_ != nullptr);
  MHB_CHECK(!heads_.empty());
  MHB_CHECK_EQ(heads_.size(), exit_blocks_.size());
  MHB_CHECK_EQ(blocks_.size(), block_names_.size());
  MHB_CHECK_EQ(heads_.size(), head_names_.size());
  for (std::size_t i = 0; i < exit_blocks_.size(); ++i) {
    MHB_CHECK_GE(exit_blocks_[i], 0);
    MHB_CHECK_LT(exit_blocks_[i], num_blocks());
    if (i > 0) MHB_CHECK_GT(exit_blocks_[i], exit_blocks_[i - 1]);
  }
  MHB_CHECK_EQ(exit_blocks_.back(), num_blocks() - 1)
      << "deepest exit must be after the last block";
  block_scope_names_.reserve(block_names_.size());
  for (const auto& name : block_names_) {
    block_scope_names_.push_back(obs::InternName(name));
  }
}

std::vector<Tensor> TrunkModel::ForwardHeads(const Tensor& x) {
  std::vector<Tensor> logits;
  logits.reserve(heads_.size());
  Tensor h;
  {
    obs::ProfileScope stem_scope("stem");
    h = stem_->Forward(x);
  }
  std::size_t next_exit = 0;
  for (int b = 0; b < num_blocks(); ++b) {
    {
      obs::ProfileScope block_scope(
          block_scope_names_[static_cast<std::size_t>(b)]);
      h = blocks_[static_cast<std::size_t>(b)]->Forward(h);
    }
    if (next_exit < exit_blocks_.size() && exit_blocks_[next_exit] == b) {
      if (capture_embedding_ && next_exit + 1 == exit_blocks_.size()) {
        last_embedding_ = h;
      }
      obs::ProfileScope head_scope("head");
      logits.push_back(heads_[next_exit]->Forward(h));
      ++next_exit;
    }
  }
  MHB_CHECK_EQ(next_exit, heads_.size());
  return logits;
}

TrunkModel::HeadsOutput TrunkModel::InferHeads(const Tensor& x,
                                               nn::NormStats stats,
                                               bool embedding) const {
  HeadsOutput out;
  out.logits.reserve(heads_.size());
  Tensor h;
  {
    obs::ProfileScope stem_scope("stem");
    h = stem_->Infer(x, stats);
  }
  std::size_t next_exit = 0;
  for (int b = 0; b < num_blocks(); ++b) {
    const auto bu = static_cast<std::size_t>(b);
    {
      obs::ProfileScope block_scope(block_scope_names_[bu]);
      h = blocks_[bu]->Infer(h, stats);
    }
    if (next_exit < exit_blocks_.size() && exit_blocks_[next_exit] == b) {
      if (embedding && next_exit + 1 == exit_blocks_.size()) {
        out.embedding = h;
      }
      obs::ProfileScope head_scope("head");
      out.logits.push_back(heads_[next_exit]->Infer(h, stats));
      ++next_exit;
    }
  }
  MHB_CHECK_EQ(next_exit, heads_.size());
  return out;
}

Tensor TrunkModel::BackwardHeads(const std::vector<Tensor>& head_grads,
                                 const Tensor& embedding_grad) {
  MHB_CHECK_EQ(head_grads.size(), heads_.size());
  Tensor g;  // gradient flowing backwards through the trunk
  auto merge = [&g](Tensor extra) {
    if (g.empty()) {
      g = std::move(extra);
    } else {
      g.AddInPlace(extra);
    }
  };
  int next_exit = static_cast<int>(exit_blocks_.size()) - 1;
  for (int b = num_blocks() - 1; b >= 0; --b) {
    if (next_exit >= 0 && exit_blocks_[static_cast<std::size_t>(next_exit)] == b) {
      if (!embedding_grad.empty() &&
          next_exit + 1 == static_cast<int>(exit_blocks_.size())) {
        merge(embedding_grad);
      }
      const Tensor& hg = head_grads[static_cast<std::size_t>(next_exit)];
      if (!hg.empty()) {
        obs::ProfileScope head_scope("head");
        merge(heads_[static_cast<std::size_t>(next_exit)]->Backward(hg));
      }
      --next_exit;
    }
    if (!g.empty()) {
      obs::ProfileScope block_scope(
          block_scope_names_[static_cast<std::size_t>(b)]);
      g = blocks_[static_cast<std::size_t>(b)]->Backward(g);
    }
  }
  MHB_CHECK(!g.empty()) << "BackwardHeads called with no head gradients";
  last_embedding_ = Tensor();
  obs::ProfileScope stem_scope("stem");
  return stem_->Backward(g);
}

Tensor TrunkModel::Forward(const Tensor& x) { return ForwardHeads(x).back(); }

Tensor TrunkModel::Infer(const Tensor& x, nn::NormStats stats) const {
  return InferHeads(x, stats).logits.back();
}

Tensor TrunkModel::Backward(const Tensor& grad_out) {
  std::vector<Tensor> grads(heads_.size());
  grads.back() = grad_out;
  return BackwardHeads(grads);
}

void TrunkModel::CollectParams(const std::string& prefix,
                               std::vector<nn::NamedParam>& out) {
  stem_->CollectParams(nn::JoinName(prefix, "stem"), out);
  for (int b = 0; b < num_blocks(); ++b) {
    blocks_[static_cast<std::size_t>(b)]->CollectParams(
        nn::JoinName(prefix, block_names_[static_cast<std::size_t>(b)]), out);
  }
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    heads_[i]->CollectParams(nn::JoinName(prefix, head_names_[i]), out);
  }
}

int TotalBlocks(const std::vector<int>& stage_blocks) {
  int n = 0;
  for (int b : stage_blocks) n += b;
  return n;
}

Tokenwise::Tokenwise(nn::ModulePtr inner) : inner_(std::move(inner)) {
  MHB_CHECK(inner_ != nullptr);
}

Tensor Tokenwise::Forward(const Tensor& x) {
  MHB_CHECK_EQ(x.ndim(), 3);
  cached_n_ = x.dim(0);
  cached_l_ = x.dim(1);
  const Tensor x2 = x.Reshape({cached_n_ * cached_l_, x.dim(2)});
  Tensor y2 = inner_->Forward(x2);
  const int d = y2.dim(1);
  return std::move(y2).Reshape({cached_n_, cached_l_, d});
}

Tensor Tokenwise::Infer(const Tensor& x, nn::NormStats stats) const {
  MHB_CHECK_EQ(x.ndim(), 3);
  const int n = x.dim(0), l = x.dim(1);
  Tensor y2 = inner_->Infer(x.Reshape({n * l, x.dim(2)}), stats);
  const int d = y2.dim(1);
  return std::move(y2).Reshape({n, l, d});
}

Tensor Tokenwise::Backward(const Tensor& grad_out) {
  MHB_CHECK(cached_n_ > 0) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 3);
  const Tensor g2 =
      grad_out.Reshape({cached_n_ * cached_l_, grad_out.dim(2)});
  Tensor gx2 = inner_->Backward(g2);
  const int d = gx2.dim(1);
  Tensor gx = std::move(gx2).Reshape({cached_n_, cached_l_, d});
  cached_n_ = cached_l_ = 0;
  return gx;
}

void Tokenwise::CollectParams(const std::string& prefix,
                              std::vector<nn::NamedParam>& out) {
  inner_->CollectParams(prefix, out);
}

PositionalEmbedding::PositionalEmbedding(int seq_len, int dim, Rng& rng)
    : table_(Tensor::Randn({seq_len, dim}, rng, 0.02f)) {
  MHB_CHECK_GT(seq_len, 0);
  MHB_CHECK_GT(dim, 0);
}

Tensor PositionalEmbedding::Forward(const Tensor& x) {
  Tensor y = Infer(x, nn::NormStats::kBatch);
  forwarded_ = true;
  return y;
}

Tensor PositionalEmbedding::Infer(const Tensor& x,
                                  nn::NormStats /*stats*/) const {
  MHB_CHECK_EQ(x.ndim(), 3);
  MHB_CHECK_EQ(x.dim(1), table_.value.dim(0));
  MHB_CHECK_EQ(x.dim(2), table_.value.dim(1));
  Tensor y = Tensor::Uninitialized(x.shape());
  const int n = x.dim(0);
  const std::size_t ld = table_.value.numel();
  const Scalar* pos = table_.value.data().data();
  for (int b = 0; b < n; ++b) {
    const std::size_t o = static_cast<std::size_t>(b) * ld;
    const Scalar* xr = x.data().data() + o;
    Scalar* yr = y.data().data() + o;
    for (std::size_t i = 0; i < ld; ++i) yr[i] = xr[i] + pos[i];
  }
  return y;
}

Tensor PositionalEmbedding::Backward(const Tensor& grad_out) {
  MHB_CHECK(forwarded_) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 3);
  const int n = grad_out.dim(0);
  const std::size_t ld = table_.value.numel();
  for (int b = 0; b < n; ++b) {
    const Scalar* row =
        grad_out.data().data() + static_cast<std::size_t>(b) * ld;
    Scalar* g = table_.grad.data().data();
    for (std::size_t i = 0; i < ld; ++i) g[i] += row[i];
  }
  forwarded_ = false;
  return grad_out;
}

void PositionalEmbedding::CollectParams(const std::string& prefix,
                                        std::vector<nn::NamedParam>& out) {
  out.push_back({nn::JoinName(prefix, "table"), &table_});
}

}  // namespace mhbench::models
