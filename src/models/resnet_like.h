// ResNet-style residual CNN family (stands in for ResNet-18/34/50/101 in the
// paper's CV experiments).
//
// Structure: conv-bn-relu stem, then `stage_blocks[s]` basic residual blocks
// per stage at `stage_channels[s]` channels (stages after the first
// downsample by 2 and project the skip), a classifier head (GAP + linear) at
// every block exit.  Width slicing keeps a per-stage channel subset; depth
// slicing keeps a block prefix.
#pragma once

#include "models/model_spec.h"

namespace mhbench::models {

struct ResNetLikeConfig {
  std::string name = "resnet-like";
  int in_channels = 3;
  int image_size = 8;   // input is [in_channels, image_size, image_size]
  int num_classes = 10;
  std::vector<int> stage_channels = {8, 16};
  std::vector<int> stage_blocks = {2, 2};
};

// The residual CNN that ResNetLike and HarCnn both build: a conv-bn-relu
// stem (3 wide over [C, H, W] images, 5 wide over unit-height [C, L]
// sensor windows), basic blocks of two 3-wide conv-bn layers, and GAP +
// linear heads.  `unit_height` selects 1 x k kernels over [N, C, L] input.
BuiltModel BuildResidualCnn(int in_channels, int num_classes,
                            const std::vector<int>& stage_channels,
                            const std::vector<int>& stage_blocks,
                            bool unit_height, const BuildSpec& spec,
                            Rng& init_rng);

class ResNetLike : public ModelFamily {
 public:
  explicit ResNetLike(ResNetLikeConfig config);

  std::string name() const override { return config_.name; }
  int num_classes() const override { return config_.num_classes; }
  Shape sample_shape() const override;
  int total_blocks() const override {
    return TotalBlocks(config_.stage_blocks);
  }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override;

 private:
  ResNetLikeConfig config_;
};

}  // namespace mhbench::models
