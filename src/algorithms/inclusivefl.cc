#include "algorithms/inclusivefl.h"

#include "fl/checkpoint.h"

namespace mhbench::algorithms {

InclusiveFl::InclusiveFl(models::FamilyPtr family, double momentum,
                         std::uint64_t seed)
    : WeightSharingAlgorithm(std::move(family), seed), momentum_(momentum) {
  MHB_CHECK_GE(momentum, 0.0);
  MHB_CHECK_LE(momentum, 1.0);
}

models::BuildSpec InclusiveFl::ClientSpec(int client_id, int /*round*/,
                                          Rng& /*rng*/) {
  models::BuildSpec spec;
  spec.depth_ratio = ClientCapacity(client_id);
  return spec;
}

models::BuildSpec InclusiveFl::GlobalEvalSpec() {
  models::BuildSpec spec;
  spec.depth_ratio = MaxCapacity();
  return spec;
}

void InclusiveFl::BeginRound(int round, const std::vector<int>& participants) {
  WeightSharingAlgorithm::BeginRound(round, participants);
  // Snapshot the store once per participating round (serial phase) so
  // PostAggregate can compute per-block updates; taking it here rather than
  // lazily in RunClient keeps the concurrent dispatch phase read-only.
  if (!participants.empty()) {
    pre_round_.clear();
    for (const auto& name : global_->store().Names()) {
      pre_round_[name] = global_->store().Get(name);
    }
  }
}

void InclusiveFl::PostAggregate(int /*round*/, Rng& /*rng*/) {
  if (momentum_ <= 0 || pre_round_.empty()) return;
  // Ordered block names from the full model.
  const auto& trunk = global_->trunk();
  for (int b = 0; b + 1 < trunk.num_blocks(); ++b) {
    const std::string from = trunk.block_name(b + 1) + "/";
    const std::string to = trunk.block_name(b) + "/";
    for (const auto& name : global_->store().Names()) {
      if (name.rfind(from, 0) != 0) continue;
      if (name.find("running_") != std::string::npos) continue;
      const std::string suffix = name.substr(from.size());
      const std::string target = to + suffix;
      if (!global_->store().Has(target)) continue;
      const Tensor& now = global_->store().Get(name);
      const Tensor& before = pre_round_.at(name);
      Tensor& dst = global_->store().GetMutable(target);
      if (now.shape() != before.shape() || now.shape() != dst.shape()) {
        continue;  // shape-incompatible neighbours (stage boundaries)
      }
      // dst += momentum * (now - before)
      Tensor delta = now;
      delta.SubInPlace(before);
      dst.AxpyInPlace(static_cast<Scalar>(momentum_), delta);
    }
  }
  pre_round_.clear();
}

void InclusiveFl::SaveExtraState(fl::SnapshotWriter& writer) const {
  writer.WriteU32(static_cast<std::uint32_t>(pre_round_.size()));
  for (const auto& [name, t] : pre_round_) {
    writer.WriteString(name);
    writer.WriteTensor(t);
  }
}

void InclusiveFl::LoadExtraState(fl::SnapshotReader& reader) {
  pre_round_.clear();
  const std::uint32_t count = reader.ReadU32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = reader.ReadString();
    pre_round_[name] = reader.ReadTensor();
  }
}

}  // namespace mhbench::algorithms
