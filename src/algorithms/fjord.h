// Fjord (Horvath et al. NeurIPS'21): ordered dropout.  Each training pass a
// client samples a width p uniformly from the allowed ratios no larger than
// its own capacity and trains the nested prefix sub-model of width p; the
// aggregation is the same masked average as HeteroFL.
//
// We sample p once per round per client (every client trains one local
// epoch, fl::LocalTrainOptions, so per-round sampling equals Fjord's
// per-iteration sampling granularity at sim scale).
#pragma once

#include "algorithms/algorithm.h"

namespace mhbench::algorithms {

class Fjord : public WeightSharingAlgorithm {
 public:
  Fjord(models::FamilyPtr family, std::vector<double> ratio_ladder,
        std::uint64_t seed);

  std::string name() const override { return "fjord"; }

 protected:
  models::BuildSpec ClientSpec(int client_id, int round, Rng& rng) override;
  models::BuildSpec EvalSpec(int client_id) override;
  models::BuildSpec GlobalEvalSpec() override;

 private:
  std::vector<double> ladder_;  // ascending allowed ratios
};

}  // namespace mhbench::algorithms
