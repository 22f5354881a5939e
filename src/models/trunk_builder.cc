#include "models/trunk_builder.h"

#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"

namespace mhbench::models {
namespace {

// Conv + BN (+ ReLU) from `in_c` input channels, kept as `in` (null: all).
void AddConvBn(nn::Sequential& seq, MappingBuilder& mb, Rng& rng,
               bool unit_height, const std::vector<int>* in, int in_c,
               const std::vector<int>& out, int k, int stride, bool relu) {
  const int out_c = static_cast<int>(out.size());
  const int kh = unit_height ? 1 : k;
  seq.Add(std::make_unique<nn::Conv2d>(
      nn::KaimingNormal({out_c, in_c, kh, k}, in_c * kh * k, rng), Tensor(),
      stride, unit_height ? 0 : k / 2, k / 2));
  mb.AddConv2d(&out, in, /*bias=*/false);
  seq.Add(std::make_unique<nn::BatchNorm>(out_c));
  mb.AddBatchNorm(&out);
  if (relu) seq.Add(std::make_unique<nn::ReLU>());
}

}  // namespace

void CheckStages(int in_channels, int num_classes,
                 const std::vector<int>& stage_channels,
                 const std::vector<int>& stage_blocks) {
  MHB_CHECK_GT(in_channels, 0);
  MHB_CHECK_GT(num_classes, 0);
  MHB_CHECK_EQ(stage_channels.size(), stage_blocks.size());
  MHB_CHECK(!stage_channels.empty());
  for (std::size_t s = 0; s < stage_channels.size(); ++s) {
    MHB_CHECK_GT(stage_channels[s], 0);
    MHB_CHECK_GT(stage_blocks[s], 0);
  }
}

TrunkBuilder::TrunkBuilder(const BuildSpec& spec, int total_blocks,
                           Rng& init_rng, bool unit_height)
    : spec_(spec),
      kept_blocks_(spec.KeptBlocks(total_blocks)),
      rng_(init_rng),
      unit_height_(unit_height) {}

void TrunkBuilder::ConvBn(nn::Sequential& seq, const std::vector<int>& in,
                          const std::vector<int>& out, int k, int stride,
                          bool relu) {
  AddConvBn(seq, mb_, rng_, unit_height_, &in, static_cast<int>(in.size()),
            out, k, stride, relu);
}

void TrunkBuilder::ConvStem(int in_channels, const std::vector<int>& out,
                            int k) {
  auto stem = std::make_unique<nn::Sequential>();
  AddConvBn(*stem, mb_, rng_, unit_height_, nullptr, in_channels, out, k, 1,
            /*relu=*/true);
  stem_ = std::move(stem);
}

void TrunkBuilder::AddBlock(nn::ModulePtr block, std::string name,
                            const std::vector<int>* features, int width) {
  MHB_CHECK_LT(static_cast<int>(blocks_.size()), kept_blocks_);
  blocks_.push_back(std::move(block));
  block_names_.push_back(std::move(name));
  features_.emplace_back(features, width);
}

void TrunkBuilder::AddStages(
    const std::vector<int>& stage_blocks,
    const std::vector<std::vector<int>>& stage_features,
    const std::function<nn::ModulePtr(int, int)>& make_block) {
  for (int s = 0; s < static_cast<int>(stage_blocks.size()); ++s) {
    const auto su = static_cast<std::size_t>(s);
    for (int b = 0; b < stage_blocks[su]; ++b) {
      if (static_cast<int>(blocks_.size()) == kept_blocks_) return;
      const std::vector<int>& features = stage_features[su];
      std::string name = "s";
      name += std::to_string(s) + 'b' + std::to_string(b);
      AddBlock(make_block(s, b), std::move(name), &features,
               static_cast<int>(features.size()));
    }
  }
}

void TrunkBuilder::AddResidualStages(const std::vector<int>& stage_blocks,
                                     const std::vector<std::vector<int>>& ch,
                                     bool relu_after,
                                     const ResidualBody& body) {
  AddStages(stage_blocks, ch, [&](int s, int b) -> nn::ModulePtr {
    const auto su = static_cast<std::size_t>(s);
    // Projection shortcuts follow the full-scale structure, so sub-models
    // always mirror the global model's module tree (a ratio that happens
    // to collapse two stages to equal widths must not drop the projection).
    const bool downsample = b == 0 && s > 0;
    const std::vector<int>& in = downsample ? ch[su - 1] : ch[su];
    const std::vector<int>& out = ch[su];
    const int stride = downsample ? 2 : 1;
    auto seq = std::make_unique<nn::Sequential>();
    body(*seq, in, out, s, stride);
    nn::ModulePtr shortcut;
    if (downsample) {
      auto proj = std::make_unique<nn::Sequential>();
      ConvBn(*proj, in, out, 1, stride, /*relu=*/false);
      shortcut = std::move(proj);
    } else {
      MHB_CHECK_EQ(in.size(), out.size());
    }
    auto residual =
        std::make_unique<nn::Residual>(std::move(seq), std::move(shortcut));
    if (!relu_after) return residual;
    auto block = std::make_unique<nn::Sequential>();
    block->Add(std::move(residual));
    block->Add(std::make_unique<nn::ReLU>());
    return block;
  });
}

BuiltModel TrunkBuilder::Finish(int num_classes,
                                const HeadLayers& head_layers) {
  MHB_CHECK(stem_ != nullptr);
  MHB_CHECK_EQ(static_cast<int>(blocks_.size()), kept_blocks_);
  std::vector<int> exits;
  if (spec_.multi_head) {
    for (int b = 0; b < kept_blocks_; ++b) exits.push_back(b);
  } else {
    exits.push_back(kept_blocks_ - 1);
  }
  std::vector<nn::ModulePtr> heads;
  std::vector<std::string> head_names;
  for (int e : exits) {
    const auto [features, width] = features_[static_cast<std::size_t>(e)];
    auto head = std::make_unique<nn::Sequential>();
    if (head_layers) {
      head_layers(*head, mb_);
    } else {
      head->Add(std::make_unique<nn::GlobalAvgPool>());
    }
    head->Add(std::make_unique<nn::Linear>(
        nn::KaimingNormal({num_classes, width}, width, rng_),
        Tensor({num_classes})));
    mb_.AddLinear(nullptr, features, /*bias=*/true);
    heads.push_back(std::move(head));
    head_names.push_back("head" + std::to_string(e));
  }
  BuiltModel built;
  built.net = std::make_unique<TrunkModel>(
      std::move(stem_), std::move(blocks_), std::move(exits),
      std::move(heads), std::move(block_names_), std::move(head_names));
  built.mapping = mb_.Finalize(*built.net);
  return built;
}

}  // namespace mhbench::models
