#include "models/mobilenet_like.h"

#include "models/trunk_builder.h"

namespace mhbench::models {

MobileNetLike::MobileNetLike(MobileNetLikeConfig config)
    : config_(std::move(config)) {
  CheckStages(config_.in_channels, config_.num_classes,
              config_.stage_channels, config_.stage_blocks);
  MHB_CHECK_GT(config_.expansion, 0);
}

Shape MobileNetLike::sample_shape() const {
  return {config_.in_channels, config_.image_size, config_.image_size};
}

BuiltModel MobileNetLike::Build(const BuildSpec& spec, Rng& init_rng) const {
  std::vector<std::vector<int>> ch;      // kept channels per stage
  std::vector<std::vector<int>> exp_ch;  // kept expanded channels per stage
  for (int c : config_.stage_channels) {
    ch.push_back(spec.ChannelIndices(c));
    exp_ch.push_back(spec.ChannelIndices(c * config_.expansion));
  }
  TrunkBuilder tb(spec, total_blocks(), init_rng);
  tb.ConvStem(config_.in_channels, ch[0], 3);
  tb.AddResidualStages(
      config_.stage_blocks, ch, /*relu_after=*/false,
      [&](nn::Sequential& body, const std::vector<int>& in,
          const std::vector<int>& out, int stage, int stride) {
        const std::vector<int>& mid = exp_ch[static_cast<std::size_t>(stage)];
        tb.ConvBn(body, in, mid, 1, 1, /*relu=*/true);         // expand
        tb.ConvBn(body, mid, mid, 3, stride, /*relu=*/true);   // spatial
        tb.ConvBn(body, mid, out, 1, 1, /*relu=*/false);       // project
      });
  return tb.Finish(config_.num_classes);
}

}  // namespace mhbench::models
