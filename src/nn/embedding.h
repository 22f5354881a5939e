// Token embedding: [N, L] integer ids (stored as floats) -> [N, L, D].
#pragma once

#include "core/rng.h"
#include "nn/module.h"

namespace mhbench::nn {

class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng);
  explicit Embedding(Tensor table /*[vocab, dim]*/);

  Tensor Forward(const Tensor& ids) override;
  Tensor Infer(const Tensor& ids, NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>& out) override;

  int vocab_size() const { return table_.value.dim(0); }
  int dim() const { return table_.value.dim(1); }

  Parameter& table() { return table_; }

 private:
  Parameter table_;        // [vocab, dim]
  std::vector<int> cached_ids_;
  Shape cached_id_shape_;
};

}  // namespace mhbench::nn
