// Fed-ET (Cho et al. IJCAI'22): heterogeneous ensemble knowledge transfer.
//
// Clients are grouped by architecture; within a group updates are FedAvg'd.
// The server holds a large model trained by confidence-weighted ensemble
// distillation from the group models on an unlabeled public dataset, which
// is what the global-accuracy metric evaluates.  Our public set is a fixed
// unlabeled slice of the training pool (labels unused); Fed-ET's diversity
// regularization term is omitted at sim scale (see DESIGN.md).
//
// Threading: group models are synced once after each change to their store
// (FinishRound, LoadState) and only read through const Infer afterwards, so
// the stability eval's concurrent ClientLogits share them without a lock.
// FinishRound fans the (step x group) teacher forwards out to the engine
// pool, overlapped with the student's SGD steps, which stay serial.
#pragma once

#include <memory>

#include "fl/aggregator.h"
#include "fl/engine.h"
#include "fl/server.h"
#include "nn/optimizer.h"

namespace mhbench::algorithms {

class FedEt : public fl::MhflAlgorithm {
 public:
  struct Options {
    double temperature = 2.0;
    int distill_batches = 10;
    int public_samples = 128;
    double server_lr = 0.1;
  };

  FedEt(std::vector<models::FamilyPtr> families, Options options,
        std::uint64_t seed);

  std::string name() const override { return "fedet"; }

  void Setup(const fl::FlContext& ctx, Rng& rng) override;
  void BeginRound(int round, const std::vector<int>& participants) override;
  void RunClient(int client_id, int round, Rng& rng) override;
  void FinishRound(int round, Rng& rng) override;
  Tensor GlobalLogits(const Tensor& x) override;
  Tensor ClientLogits(int client_id, const Tensor& x) override;

  // Checkpoint hooks: the persistent state is the per-group stores and the
  // distilled server model.  The public distillation slice, averagers and
  // round counters are rebuilt by Setup / empty at round barriers.
  void SaveState(fl::SnapshotWriter& writer) const override;
  void LoadState(fl::SnapshotReader& reader) override;

 private:
  int ArchOf(int client_id) const;
  // One SGD step of the server model toward `teacher` (the consensus
  // probabilities for public batch `x`).
  void DistillStep(const Tensor& x, const Tensor& teacher, nn::Sgd& sgd);

  std::vector<models::FamilyPtr> families_;
  Options options_;
  std::uint64_t seed_;
  const fl::FlContext* ctx_ = nullptr;

  // Per-architecture group state.
  std::vector<std::unique_ptr<fl::GlobalModel>> group_models_;
  std::vector<fl::MaskedAverager> group_averagers_;
  std::vector<int> group_round_clients_;  // sampled clients per group

  // Current round's participants (dispatch order) and their staged uploads;
  // RunClient fills only its own slot, FinishRound merges in order.
  std::vector<int> round_participants_;
  std::vector<fl::ClientUpdate> staged_;
  std::vector<std::size_t> slot_of_client_;

  // Server (large) model, trained by distillation.
  models::BuiltModel server_model_;

  Tensor public_features_;  // unlabeled distillation set
};

}  // namespace mhbench::algorithms
