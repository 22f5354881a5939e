// 1-D CNN family for human-activity-recognition tasks (stands in for the
// customized CNNs of Ek et al. used by the paper's HAR experiments).
//
// The residual CNN of ResNetLike (BuildResidualCnn) over unit-height input:
// [channels, window] sensor windows, 1 x k kernels, a 5-wide stem.
#pragma once

#include "models/model_spec.h"

namespace mhbench::models {

struct HarCnnConfig {
  std::string name = "har-cnn";
  int in_channels = 3;   // accelerometer axes
  int window = 32;       // samples per window
  int num_classes = 6;
  std::vector<int> stage_channels = {8, 16};
  std::vector<int> stage_blocks = {1, 1};
};

class HarCnn : public ModelFamily {
 public:
  explicit HarCnn(HarCnnConfig config);

  std::string name() const override { return config_.name; }
  int num_classes() const override { return config_.num_classes; }
  Shape sample_shape() const override;
  int total_blocks() const override {
    return TotalBlocks(config_.stage_blocks);
  }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override;

 private:
  HarCnnConfig config_;
};

}  // namespace mhbench::models
