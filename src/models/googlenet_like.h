// GoogLeNet-style Inception CNN family (the fourth architecture the paper
// names for topology heterogeneity, Section III).
//
// Each block is a simplified Inception module with three parallel branches
// — 1x1, 1x1 -> 3x3, and a second 1x1 (standing in for the pooled branch;
// overlapping 3x3 average pooling is omitted at sim scale) — concatenated
// along channels.  Stages downsample with a stride-2 reduction conv.
// Width slicing keeps a subset of every branch; the consumer-side channel
// set is the offset concatenation of the branch subsets.
#pragma once

#include "models/model_spec.h"

namespace mhbench::models {

struct GoogleNetLikeConfig {
  std::string name = "googlenet-like";
  int in_channels = 3;
  int image_size = 8;
  int num_classes = 10;
  std::vector<int> stage_channels = {8, 16};  // concat width per stage
  std::vector<int> stage_blocks = {2, 2};
};

class GoogleNetLike : public ModelFamily {
 public:
  explicit GoogleNetLike(GoogleNetLikeConfig config);

  std::string name() const override { return config_.name; }
  int num_classes() const override { return config_.num_classes; }
  Shape sample_shape() const override;
  int total_blocks() const override {
    return TotalBlocks(config_.stage_blocks);
  }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override;

  // Branch split of a stage's concat width (b1 + b2 + b3 == stage width).
  static void SplitBranches(int stage_channels, int& b1, int& b2, int& b3);

 private:
  GoogleNetLikeConfig config_;
};

}  // namespace mhbench::models
