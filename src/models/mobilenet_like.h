// MobileNet-style inverted-residual CNN family (stands in for MobileNetV2 /
// V3 in the paper's CV experiments).
//
// Each block expands channels by `expansion` with a 1x1 conv, applies a 3x3
// conv at the expanded width, and projects back with a 1x1 conv (linear
// bottleneck).  True depthwise (grouped) convolution is replaced by a dense
// 3x3 at the expanded width — the structural knobs the MHFL algorithms
// manipulate (channel groups per stage, block count) are identical; see
// DESIGN.md for the substitution note.
#pragma once

#include "models/model_spec.h"

namespace mhbench::models {

struct MobileNetLikeConfig {
  std::string name = "mobilenet-like";
  int in_channels = 3;
  int image_size = 8;
  int num_classes = 10;
  std::vector<int> stage_channels = {8, 16};
  std::vector<int> stage_blocks = {2, 2};
  int expansion = 2;
};

class MobileNetLike : public ModelFamily {
 public:
  explicit MobileNetLike(MobileNetLikeConfig config);

  std::string name() const override { return config_.name; }
  int num_classes() const override { return config_.num_classes; }
  Shape sample_shape() const override;
  int total_blocks() const override {
    return TotalBlocks(config_.stage_blocks);
  }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override;

 private:
  MobileNetLikeConfig config_;
};

}  // namespace mhbench::models
