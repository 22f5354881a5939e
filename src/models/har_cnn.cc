#include "models/har_cnn.h"

#include "models/resnet_like.h"
#include "models/trunk_builder.h"

namespace mhbench::models {

HarCnn::HarCnn(HarCnnConfig config) : config_(std::move(config)) {
  CheckStages(config_.in_channels, config_.num_classes,
              config_.stage_channels, config_.stage_blocks);
}

Shape HarCnn::sample_shape() const {
  return {config_.in_channels, config_.window};
}

BuiltModel HarCnn::Build(const BuildSpec& spec, Rng& init_rng) const {
  return BuildResidualCnn(config_.in_channels, config_.num_classes,
                          config_.stage_channels, config_.stage_blocks,
                          /*unit_height=*/true, spec, init_rng);
}

}  // namespace mhbench::models
