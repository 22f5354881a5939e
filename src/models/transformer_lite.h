// Transformer encoder classifier family (stands in for the paper's
// customized transformer on AG-News).
//
// Stem: token embedding + learned positional embedding.  Blocks: pre-norm
// self-attention and pre-norm FFN, both with identity residuals.  Heads:
// LayerNorm + mean-pool + linear, attachable at every block exit.
//
// Width heterogeneity slices the FFN hidden width (d_model stays fixed so
// attention is never cut mid-head); depth heterogeneity drops trailing
// blocks.  This mirrors how HeteroFL-style slicing is applied to
// transformers in practice.
#pragma once

#include "models/model_spec.h"

namespace mhbench::models {

struct TransformerLiteConfig {
  std::string name = "transformer-lite";
  int vocab_size = 64;
  int seq_len = 12;
  int d_model = 16;
  int num_heads = 2;
  int ffn_hidden = 32;
  int num_blocks = 4;
  int num_classes = 4;
  // ALBERT-style factorized embedding: tokens embed into `embed_dim` and are
  // projected up to d_model.  0 disables factorization (plain transformer).
  int factorized_embed_dim = 0;
};

class TransformerLite : public ModelFamily {
 public:
  explicit TransformerLite(TransformerLiteConfig config);

  std::string name() const override { return config_.name; }
  int num_classes() const override { return config_.num_classes; }
  Shape sample_shape() const override;  // [seq_len] of token ids
  int total_blocks() const override { return config_.num_blocks; }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override;

 private:
  TransformerLiteConfig config_;
};

}  // namespace mhbench::models
