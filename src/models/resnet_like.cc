#include "models/resnet_like.h"

#include "models/trunk_builder.h"

namespace mhbench::models {

BuiltModel BuildResidualCnn(int in_channels, int num_classes,
                            const std::vector<int>& stage_channels,
                            const std::vector<int>& stage_blocks,
                            bool unit_height, const BuildSpec& spec,
                            Rng& init_rng) {
  std::vector<std::vector<int>> ch;  // kept channels per stage
  for (int c : stage_channels) ch.push_back(spec.ChannelIndices(c));
  TrunkBuilder tb(spec, TotalBlocks(stage_blocks), init_rng, unit_height);
  tb.ConvStem(in_channels, ch[0], unit_height ? 5 : 3);
  tb.AddResidualStages(
      stage_blocks, ch, /*relu_after=*/true,
      [&tb](nn::Sequential& body, const std::vector<int>& in,
            const std::vector<int>& out, int /*stage*/, int stride) {
        tb.ConvBn(body, in, out, 3, stride, /*relu=*/true);
        tb.ConvBn(body, out, out, 3, 1, /*relu=*/false);
      });
  return tb.Finish(num_classes);
}

ResNetLike::ResNetLike(ResNetLikeConfig config) : config_(std::move(config)) {
  CheckStages(config_.in_channels, config_.num_classes,
              config_.stage_channels, config_.stage_blocks);
}

Shape ResNetLike::sample_shape() const {
  return {config_.in_channels, config_.image_size, config_.image_size};
}

BuiltModel ResNetLike::Build(const BuildSpec& spec, Rng& init_rng) const {
  return BuildResidualCnn(config_.in_channels, config_.num_classes,
                          config_.stage_channels, config_.stage_blocks,
                          /*unit_height=*/false, spec, init_rng);
}

}  // namespace mhbench::models
