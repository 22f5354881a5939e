#include "nn/embedding.h"

#include <cmath>

#include "obs/profile.h"

namespace mhbench::nn {

Embedding::Embedding(int vocab_size, int dim, Rng& rng) {
  MHB_CHECK_GT(vocab_size, 0);
  MHB_CHECK_GT(dim, 0);
  table_ = Parameter(Tensor::Randn({vocab_size, dim}, rng,
                                   1.0f / std::sqrt(static_cast<float>(dim))));
}

Embedding::Embedding(Tensor table) {
  MHB_CHECK_EQ(table.ndim(), 2);
  table_ = Parameter(std::move(table));
}

Tensor Embedding::Forward(const Tensor& ids) {
  Tensor out = Infer(ids, NormStats::kBatch);  // validates every id
  cached_id_shape_ = ids.shape();
  cached_ids_.resize(ids.numel());
  for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
    cached_ids_[i] = static_cast<int>(ids[i]);
  }
  return out;
}

Tensor Embedding::Infer(const Tensor& ids, NormStats /*stats*/) const {
  obs::ProfileScope profile_scope("embedding_fwd");
  MHB_CHECK_EQ(ids.ndim(), 2);  // [N, L]
  const int n = ids.dim(0), l = ids.dim(1), d = dim();
  Tensor out({n, l, d});
  Scalar* po = out.data().data();
  const Scalar* pt = table_.value.data().data();
  for (std::size_t i = 0; i < ids.numel(); ++i) {
    const int id = static_cast<int>(ids[i]);
    MHB_CHECK(id >= 0 && id < vocab_size()) << "token id" << id;
    const Scalar* row = pt + static_cast<std::size_t>(id) * d;
    Scalar* orow = po + i * static_cast<std::size_t>(d);
    for (int j = 0; j < d; ++j) orow[j] = row[j];
  }
  return out;
}

Tensor Embedding::Backward(const Tensor& grad_out) {
  obs::ProfileScope profile_scope("embedding_bwd");
  MHB_CHECK(!cached_id_shape_.empty()) << "Backward before Forward";
  MHB_CHECK_EQ(grad_out.ndim(), 3);
  const int d = dim();
  MHB_CHECK_EQ(grad_out.dim(2), d);
  const Scalar* pg = grad_out.data().data();
  Scalar* pt = table_.grad.data().data();
  for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
    Scalar* row = pt + static_cast<std::size_t>(cached_ids_[i]) * d;
    const Scalar* grow = pg + i * static_cast<std::size_t>(d);
    for (int j = 0; j < d; ++j) row[j] += grow[j];
  }
  // Ids are not differentiable; return a zero gradient of the id shape.
  Tensor gx(std::move(cached_id_shape_));
  cached_id_shape_.clear();
  std::vector<int>().swap(cached_ids_);
  return gx;
}

void Embedding::CollectParams(const std::string& prefix,
                              std::vector<NamedParam>& out) {
  out.push_back({JoinName(prefix, "table"), &table_});
}

}  // namespace mhbench::nn
