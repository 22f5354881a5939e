// InclusiveFL (Liu et al. KDD'22): depth-level heterogeneity with momentum
// knowledge transfer.
//
// Clients train the block prefix matching their capacity with a single head
// at their depth.  After the masked average, the server transfers a
// momentum-scaled fraction of each deeper block's round update onto the
// preceding block (only between shape-compatible neighbours at sim scale),
// approximating the paper's momentum distillation that lets shallow models
// benefit from layers they never train.
#pragma once

#include <map>

#include "algorithms/algorithm.h"

namespace mhbench::algorithms {

class InclusiveFl : public WeightSharingAlgorithm {
 public:
  InclusiveFl(models::FamilyPtr family, std::uint64_t seed);

  std::string name() const override { return "inclusivefl"; }

 protected:
  models::BuildSpec ClientSpec(int client_id, int /*round*/,
                               Rng& /*rng*/) override;
  models::BuildSpec GlobalEvalSpec() override;
  void PostAggregate(int round, Rng& rng) override;

 public:
  // Snapshots the pre-round store (serial phase) for PostAggregate.
  void BeginRound(int round, const std::vector<int>& participants) override;

 protected:
  // pre_round_ persists across the round barrier (BeginRound only refreshes
  // it when the round has participants), so checkpoints must carry it.
  void SaveExtraState(fl::SnapshotWriter& writer) const override;
  void LoadExtraState(fl::SnapshotReader& reader) override;

 private:
  // Snapshot of block parameters taken before the round's aggregation, for
  // computing per-block updates.
  std::map<std::string, Tensor> pre_round_;
};

}  // namespace mhbench::algorithms
