// DepthFL (Kim et al. ICLR'23): depth-level heterogeneity with deep
// supervision and mutual self-distillation.
//
// A client keeps the block prefix matching its capacity and trains *all*
// classifier heads up to its depth: each head gets a cross-entropy loss and
// additionally distills from the averaged soft predictions of the other
// heads.  Inference ensembles the heads, which is also how the global model
// is evaluated.
#pragma once

#include "algorithms/algorithm.h"

namespace mhbench::algorithms {

class DepthFl : public WeightSharingAlgorithm {
 public:
  DepthFl(models::FamilyPtr family, std::uint64_t seed);

  std::string name() const override { return "depthfl"; }

 protected:
  models::BuildSpec ClientSpec(int client_id, int /*round*/,
                               Rng& /*rng*/) override;
  models::BuildSpec GlobalEvalSpec() override;
  double TrainClientModel(models::BuiltModel& built,
                          const data::Dataset& shard, Rng& rng) override;
  bool UseEnsembleEval() const override { return true; }
};

}  // namespace mhbench::algorithms
