// FeDepth (Zhang et al. 2023): memory-adaptive depth-wise training.
//
// A client instantiates the depth prefix matching its capacity (like other
// depth-level methods) but trains it *segment-wise*: each epoch only a
// rotating window of blocks receives gradient updates, so at most a
// fraction of the activations must be kept for backward.  That is FeDepth's
// signature trade-off — its training-memory footprint is far below
// DepthFL's (cf. Table I: 631 MB vs 1220 MB at x0.5), which under memory
// limits lets it host larger models than its competitors.
#pragma once

#include "algorithms/algorithm.h"

namespace mhbench::algorithms {

class FeDepth : public WeightSharingAlgorithm {
 public:
  FeDepth(models::FamilyPtr family, std::uint64_t seed)
      : WeightSharingAlgorithm(std::move(family), seed) {}

  std::string name() const override { return "fedepth"; }

 protected:
  models::BuildSpec ClientSpec(int client_id, int /*round*/,
                               Rng& /*rng*/) override {
    models::BuildSpec spec;
    spec.depth_ratio = ClientCapacity(client_id);
    return spec;
  }

  models::BuildSpec GlobalEvalSpec() override {
    models::BuildSpec spec;
    spec.depth_ratio = MaxCapacity();
    return spec;
  }

  double TrainClientModel(models::BuiltModel& built,
                          const data::Dataset& shard, Rng& rng) override;
};

}  // namespace mhbench::algorithms
