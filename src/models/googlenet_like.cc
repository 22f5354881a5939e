#include "models/googlenet_like.h"

#include "models/trunk_builder.h"

namespace mhbench::models {
namespace {

// Concatenates per-branch kept indices into the stage's global channel
// layout [branch1 | branch2 | branch3].
std::vector<int> ConcatKept(const std::vector<std::vector<int>>& kept,
                            const std::vector<int>& fulls) {
  std::vector<int> out;
  int offset = 0;
  for (std::size_t b = 0; b < kept.size(); ++b) {
    for (int i : kept[b]) out.push_back(offset + i);
    offset += fulls[b];
  }
  return out;
}

}  // namespace

void GoogleNetLike::SplitBranches(int stage_channels, int& b1, int& b2,
                                  int& b3) {
  MHB_CHECK_GE(stage_channels, 3) << "inception stage needs >= 3 channels";
  b1 = stage_channels / 2;
  b2 = stage_channels / 4;
  b3 = stage_channels - b1 - b2;
}

GoogleNetLike::GoogleNetLike(GoogleNetLikeConfig config)
    : config_(std::move(config)) {
  CheckStages(config_.in_channels, config_.num_classes,
              config_.stage_channels, config_.stage_blocks);
  for (int c : config_.stage_channels) MHB_CHECK_GE(c, 4);
}

Shape GoogleNetLike::sample_shape() const {
  return {config_.in_channels, config_.image_size, config_.image_size};
}

BuiltModel GoogleNetLike::Build(const BuildSpec& spec, Rng& init_rng) const {
  // Per stage: the kept channels of each branch, and their concatenation
  // (the consumer-side channel set).
  std::vector<std::vector<std::vector<int>>> kept;
  std::vector<std::vector<int>> concat_kept;
  for (int c : config_.stage_channels) {
    int b1 = 0, b2 = 0, b3 = 0;
    SplitBranches(c, b1, b2, b3);
    const std::vector<int> fulls = {b1, b2, b3};
    auto& k = kept.emplace_back();
    for (int full : fulls) k.push_back(spec.ChannelIndices(full));
    concat_kept.push_back(ConcatKept(k, fulls));
  }

  TrunkBuilder tb(spec, total_blocks(), init_rng);
  tb.ConvStem(config_.in_channels, concat_kept[0], 3);
  tb.AddStages(
      config_.stage_blocks, concat_kept, [&](int s, int b) -> nn::ModulePtr {
        const auto su = static_cast<std::size_t>(s);
        const std::vector<int>& out = concat_kept[su];
        auto block = std::make_unique<nn::Sequential>();
        if (b == 0 && s > 0) {
          // Stride-2 reduction conv from the previous stage's layout into
          // this stage's layout.
          tb.ConvBn(*block, concat_kept[su - 1], out, 3, 2, /*relu=*/true);
        }
        // Inception module: 1x1; 1x1 -> 3x3; and a second 1x1 (the pool
        // branch's stand-in), each on this stage's layout.
        std::vector<nn::ModulePtr> branches;
        for (std::size_t br = 0; br < 3; ++br) {
          const std::vector<int>& k = kept[su][br];
          auto seq = std::make_unique<nn::Sequential>();
          tb.ConvBn(*seq, out, k, 1, 1, /*relu=*/true);
          if (br == 1) tb.ConvBn(*seq, k, k, 3, 1, /*relu=*/true);
          branches.push_back(std::move(seq));
        }
        block->Add(std::make_unique<nn::ConcatBranches>(std::move(branches)));
        return block;
      });
  return tb.Finish(config_.num_classes);
}

}  // namespace mhbench::models
