#include "models/transformer_lite.h"

#include "models/trunk_builder.h"
#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"

namespace mhbench::models {

TransformerLite::TransformerLite(TransformerLiteConfig config)
    : config_(std::move(config)) {
  MHB_CHECK_GT(config_.vocab_size, 0);
  MHB_CHECK_GT(config_.seq_len, 0);
  MHB_CHECK_GT(config_.d_model, 0);
  MHB_CHECK_GT(config_.num_blocks, 0);
  MHB_CHECK_GT(config_.num_classes, 0);
  MHB_CHECK_EQ(config_.d_model % config_.num_heads, 0);
  MHB_CHECK_GE(config_.factorized_embed_dim, 0);
}

Shape TransformerLite::sample_shape() const { return {config_.seq_len}; }

BuiltModel TransformerLite::Build(const BuildSpec& spec,
                                  Rng& init_rng) const {
  const int d = config_.d_model;
  const std::vector<int> ffn_idx = spec.ChannelIndices(config_.ffn_hidden);
  const int f = static_cast<int>(ffn_idx.size());
  TrunkBuilder tb(spec, config_.num_blocks, init_rng);
  MappingBuilder& mb = tb.mapping();

  // Stem: embedding (optionally factorized) + positional embedding.
  auto stem = std::make_unique<nn::Sequential>();
  if (config_.factorized_embed_dim > 0) {
    stem->Add(std::make_unique<nn::Embedding>(config_.vocab_size,
                                              config_.factorized_embed_dim,
                                              init_rng));
    mb.AddEmbedding();
    auto up = std::make_unique<nn::Linear>(config_.factorized_embed_dim, d,
                                           init_rng);
    stem->Add(std::make_unique<Tokenwise>(std::move(up)));
    mb.AddLinear(nullptr, nullptr, true);
  } else {
    stem->Add(
        std::make_unique<nn::Embedding>(config_.vocab_size, d, init_rng));
    mb.AddEmbedding();
  }
  stem->Add(
      std::make_unique<PositionalEmbedding>(config_.seq_len, d, init_rng));
  mb.AddPositional();
  tb.SetStem(std::move(stem));

  for (int b = 0; b < tb.kept_blocks(); ++b) {
    auto attn_body = std::make_unique<nn::Sequential>();
    attn_body->Add(std::make_unique<nn::LayerNorm>(d));
    mb.AddLayerNorm(nullptr);
    attn_body->Add(
        std::make_unique<nn::MultiHeadSelfAttention>(d, config_.num_heads,
                                                     init_rng));
    mb.AddAttention();

    // Slot order must match CollectParams traversal of the finished block:
    // attn LN, attention, ffn LN, ffn linear1, ffn linear2.
    auto ffn_body = std::make_unique<nn::Sequential>();
    ffn_body->Add(std::make_unique<nn::LayerNorm>(d));
    mb.AddLayerNorm(nullptr);
    auto ffn_inner = std::make_unique<nn::Sequential>();
    ffn_inner->Add(std::make_unique<nn::Linear>(
        nn::KaimingNormal({f, d}, d, init_rng), Tensor({f})));
    mb.AddLinear(&ffn_idx, nullptr, true);
    ffn_inner->Add(std::make_unique<nn::Gelu>());
    ffn_inner->Add(std::make_unique<nn::Linear>(
        nn::KaimingNormal({d, f}, f, init_rng), Tensor({d})));
    mb.AddLinear(nullptr, &ffn_idx, true);
    ffn_body->Add(std::make_unique<Tokenwise>(std::move(ffn_inner)));

    auto block = std::make_unique<nn::Sequential>();
    block->Add(std::make_unique<nn::Residual>(std::move(attn_body), nullptr));
    block->Add(std::make_unique<nn::Residual>(std::move(ffn_body), nullptr));
    tb.AddBlock(std::move(block), "layer" + std::to_string(b), nullptr, d);
  }

  // Heads: LayerNorm + mean over the sequence, then the shared linear.
  BuiltModel built = tb.Finish(
      config_.num_classes, [d](nn::Sequential& head, MappingBuilder& hmb) {
        head.Add(std::make_unique<nn::LayerNorm>(d));
        hmb.AddLayerNorm(nullptr);
        head.Add(std::make_unique<nn::MeanPoolSeq>());
      });
  built.trunk().set_embedding_layout(TrunkModel::EmbeddingLayout::kSeqFirst);
  return built;
}

}  // namespace mhbench::models
