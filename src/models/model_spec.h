// Model abstractions shared by all architecture families.
//
// Every family builds a `TrunkModel`: stem -> blocks[0..k) with classifier
// heads attached at chosen block exits.  Width heterogeneity slices channel
// groups; depth heterogeneity truncates the block list and picks the head at
// the truncation point; topology heterogeneity swaps the family entirely.
#pragma once

#include <compare>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "models/index_map.h"
#include "nn/composite.h"
#include "nn/module.h"

namespace mhbench::models {

// How to build one (sub-)model instance.
struct BuildSpec {
  double width_ratio = 1.0;
  double depth_ratio = 1.0;
  // FedRolex rolling-window offset (in channels); used when `rolling`.
  int width_offset = 0;
  bool rolling = false;
  // Attach classifier heads at *all* exits up to the kept depth (DepthFL);
  // otherwise only the deepest kept exit has a head.
  bool multi_head = false;

  // Every field names the model, so a spec keys a cache of built models.
  auto operator<=>(const BuildSpec&) const = default;

  // Kept-channel indices for a group of `full` channels.
  std::vector<int> ChannelIndices(int full) const;
  // Number of blocks kept out of `total` (>= 1).
  int KeptBlocks(int total) const;
};

// A constructed model together with its mapping into the global store.
struct BuiltModel {
  nn::ModulePtr net;  // actually a TrunkModel
  ParamMapping mapping;

  // Convenience accessor (checked downcast).
  class TrunkModel& trunk() const;
};

// Sequential trunk with multiple classifier exits.
//
// ForwardHeads (training) and InferHeads (evaluation, const) return logits
// for every attached head in exit order (the last entry is the deepest
// head).  Backward accepts per-head logit gradients; missing heads get zero
// gradient.
class TrunkModel : public nn::Module {
 public:
  TrunkModel(nn::ModulePtr stem, std::vector<nn::ModulePtr> blocks,
             std::vector<int> exit_blocks, std::vector<nn::ModulePtr> heads,
             std::vector<std::string> block_names,
             std::vector<std::string> head_names);

  std::vector<Tensor> ForwardHeads(const Tensor& x);
  // `embedding_grad`, when non-empty, is an extra gradient on the deepest
  // block's output (shape of `last_embedding()`); prototype-regularized
  // algorithms use it to train the trunk through the embedding.
  Tensor BackwardHeads(const std::vector<Tensor>& head_grads,
                       const Tensor& embedding_grad = Tensor());

  struct HeadsOutput {
    std::vector<Tensor> logits;  // one per head, exit order
    Tensor embedding;  // the deepest head's input, when requested
  };
  // Evaluation pass over every head; with `embedding`, also returns the
  // deepest block's output (what prototype-based algorithms pool).
  HeadsOutput InferHeads(const Tensor& x, nn::NormStats stats,
                         bool embedding = false) const;

  // Module interface: the deepest head only.
  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, nn::NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<nn::NamedParam>& out) override;

  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  int num_heads() const { return static_cast<int>(heads_.size()); }
  const std::vector<int>& exit_blocks() const { return exit_blocks_; }
  nn::Module& block(int i) { return *blocks_.at(static_cast<std::size_t>(i)); }
  nn::Module& head(int i) { return *heads_.at(static_cast<std::size_t>(i)); }
  nn::Module& stem() { return *stem_; }
  const std::string& block_name(int i) const {
    return block_names_.at(static_cast<std::size_t>(i));
  }

  // Embedding of the deepest head's input (output of the last block) from
  // the last ForwardHeads, captured when `capture_embedding` was set; the
  // training side of InferHeads' `embedding`.
  void set_capture_embedding(bool v) { capture_embedding_ = v; }
  const Tensor& last_embedding() const { return last_embedding_; }

  // Axis layout of the captured embedding: channels-first ([N, C, ...],
  // CNNs) or sequence-first ([N, L, D], transformers).  Families set this
  // at construction; prototype pooling depends on it.
  enum class EmbeddingLayout { kChannelsFirst, kSeqFirst };
  void set_embedding_layout(EmbeddingLayout l) { embedding_layout_ = l; }
  EmbeddingLayout embedding_layout() const { return embedding_layout_; }

 private:
  nn::ModulePtr stem_;
  std::vector<nn::ModulePtr> blocks_;
  std::vector<int> exit_blocks_;  // ascending; one per head
  std::vector<nn::ModulePtr> heads_;
  std::vector<std::string> block_names_;
  std::vector<std::string> head_names_;
  // block_names_ interned at construction (obs::InternName), so the per-op
  // scopes can outlive this (per-round) model.
  std::vector<const char*> block_scope_names_;
  bool capture_embedding_ = false;
  Tensor last_embedding_;
  EmbeddingLayout embedding_layout_ = EmbeddingLayout::kChannelsFirst;
};

// Applies an inner module tokenwise: [N, L, D] -> flatten -> inner -> [N, L, D'].
class Tokenwise : public nn::Module {
 public:
  explicit Tokenwise(nn::ModulePtr inner);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, nn::NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<nn::NamedParam>& out) override;

 private:
  nn::ModulePtr inner_;
  int cached_n_ = 0, cached_l_ = 0;
};

// Adds a learned positional embedding [L, D] to [N, L, D] inputs.
class PositionalEmbedding : public nn::Module {
 public:
  PositionalEmbedding(int seq_len, int dim, Rng& rng);

  Tensor Forward(const Tensor& x) override;
  Tensor Infer(const Tensor& x, nn::NormStats stats) const override;
  Tensor Backward(const Tensor& grad_out) override;
  void CollectParams(const std::string& prefix,
                     std::vector<nn::NamedParam>& out) override;

  nn::Parameter& table() { return table_; }

 private:
  nn::Parameter table_;  // [L, D]
};

// An architecture family that can produce scaled sub-models.
class ModelFamily {
 public:
  virtual ~ModelFamily() = default;

  virtual std::string name() const = 0;
  virtual int num_classes() const = 0;
  // Shape of one input sample (no batch dim).
  virtual Shape sample_shape() const = 0;

  // Builds a model per `spec`.  `init_rng` seeds fresh-parameter
  // initialization (the FL layer overwrites values from the global store for
  // weight-sharing algorithms, so the init only matters for the global model
  // and for stateful topology algorithms).
  virtual BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const = 0;

  // Total number of depth units (blocks); depth ratios quantize onto these.
  virtual int total_blocks() const = 0;
};

using FamilyPtr = std::shared_ptr<const ModelFamily>;

// Depth units of a staged family: the sum of its per-stage block counts.
int TotalBlocks(const std::vector<int>& stage_blocks);

}  // namespace mhbench::models
