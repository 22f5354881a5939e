// The one assembly path of every family's TrunkModel.
//
// Every family builds the same trunk shape: a stem, then blocks, then
// classifier heads at block exits.  A family adds its stem and blocks to a
// TrunkBuilder; the builder records their mapping slots as the layers are
// made (so slot order is the CollectParams order and init_rng is drawn
// stem, blocks, heads) and attaches the heads and assembles the model in
// Finish.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "models/model_spec.h"

namespace mhbench::models {

// Constructor checks shared by the staged CNN families.
void CheckStages(int in_channels, int num_classes,
                 const std::vector<int>& stage_channels,
                 const std::vector<int>& stage_blocks);

class TrunkBuilder {
 public:
  // `unit_height`: convolutions run over [N, C, L] input with 1 x k
  // kernels (sensor windows) instead of [N, C, H, W] with k x k kernels.
  TrunkBuilder(const BuildSpec& spec, int total_blocks, Rng& init_rng,
               bool unit_height = false);

  int kept_blocks() const { return kept_blocks_; }
  MappingBuilder& mapping() { return mb_; }

  // Appends a bias-free conv (k x k, or 1 x k under unit height; padding
  // k / 2) from the `in` to the `out` kept channels, then BatchNorm, then
  // ReLU when `relu`, and adds their mapping slots.
  void ConvBn(nn::Sequential& seq, const std::vector<int>& in,
              const std::vector<int>& out, int k, int stride, bool relu);
  // The CNN stem: conv + BatchNorm + ReLU from all `in_channels` inputs.
  // Its conv computes no input gradient, so the model's Backward returns
  // an empty tensor.
  void ConvStem(int in_channels, const std::vector<int>& out, int k);
  void SetStem(nn::ModulePtr stem) { stem_ = std::move(stem); }

  // Appends the next block, whose output has the `features` kept channels
  // (null: all `width` of them, never sliced).  `features` is read in
  // Finish, so it must outlive that call.
  void AddBlock(nn::ModulePtr block, std::string name,
                const std::vector<int>* features, int width);

  // Adds blocks stage by stage up to the kept depth: make_block(s, b)
  // builds block b of stage s, named "s<s>b<b>", whose output has the
  // `stage_features[s]` kept channels.
  void AddStages(const std::vector<int>& stage_blocks,
                 const std::vector<std::vector<int>>& stage_features,
                 const std::function<nn::ModulePtr(int, int)>& make_block);

  // Residual stages over the kept channels `ch[s]`: each block is
  // Residual(body, shortcut), followed by a ReLU when `relu_after`.
  // `body(seq, in, out, stage, stride)` appends the body's layers.  The
  // first block of every later stage has stride 2 and a 1 x 1 conv + BN
  // projection shortcut; the others keep their width under an identity
  // skip.
  using ResidualBody =
      std::function<void(nn::Sequential&, const std::vector<int>& in,
                         const std::vector<int>& out, int stage, int stride)>;
  void AddResidualStages(const std::vector<int>& stage_blocks,
                         const std::vector<std::vector<int>>& ch,
                         bool relu_after, const ResidualBody& body);

  // Attaches a head at every kept block under multi_head, else at the
  // last, and assembles the model.  A head is the layers `head_layers`
  // appends (adding their mapping slots), then a Linear from the exit's
  // features to `num_classes`.  With no `head_layers`, global average
  // pooling (the CNN head).
  using HeadLayers = std::function<void(nn::Sequential&, MappingBuilder&)>;
  BuiltModel Finish(int num_classes, const HeadLayers& head_layers = {});

 private:
  const BuildSpec& spec_;
  const int kept_blocks_;
  Rng& rng_;
  const bool unit_height_;
  MappingBuilder mb_;
  nn::ModulePtr stem_;
  std::vector<nn::ModulePtr> blocks_;
  std::vector<std::string> block_names_;
  std::vector<std::pair<const std::vector<int>*, int>> features_;
};

}  // namespace mhbench::models
