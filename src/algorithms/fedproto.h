// FedProto (Tan et al. AAAI'22): federated prototype learning across
// heterogeneous architectures.
//
// Clients keep fully personal models (no weight aggregation).  Each client
// trains with CE plus a prototype-regularization term pulling its projected
// class-mean embeddings toward the global prototypes; the server only
// aggregates per-class prototype vectors.  Since architectures embed into
// different dimensions, every client owns a small projection head into the
// shared prototype space (a standard FedProto deployment detail).
//
// Global accuracy is measured with a committee: one representative client
// model per architecture, classifying by distance to the global prototypes
// (the paper's prototype-based inference), averaged over the committee.
#pragma once

#include <map>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "fl/engine.h"
#include "models/model_spec.h"
#include "nn/linear.h"

namespace mhbench::algorithms {

class FedProto : public fl::MhflAlgorithm {
 public:
  FedProto(std::vector<models::FamilyPtr> families, double lambda,
           int proto_dim, std::uint64_t seed);

  std::string name() const override { return "fedproto"; }

  void Setup(const fl::FlContext& ctx, Rng& rng) override;
  // Pre-creates participant states (lazily built otherwise) so RunClient
  // never mutates the shared state map.
  void BeginRound(int round, const std::vector<int>& participants) override;
  void RunClient(int client_id, int round, Rng& rng) override;
  void FinishRound(int round, Rng& rng) override;
  // Pre-creates every client's state for the concurrent stability loop.
  void PrepareEvaluation() override;
  Tensor GlobalLogits(const Tensor& x) override;
  Tensor ClientLogits(int client_id, const Tensor& x) override;

  // Checkpoint hooks: the persistent state is the global prototypes plus
  // every created client's personal model + projection head.  LoadState
  // recreates each saved client's state deterministically (same seed path
  // as a live run) and then overwrites its parameters.
  void SaveState(fl::SnapshotWriter& writer) const override;
  void LoadState(fl::SnapshotReader& reader) override;

 private:
  struct ClientState {
    int arch = 0;
    models::BuiltModel model;
    std::unique_ptr<nn::Linear> proj;  // embedding -> prototype space
  };

  // One round's staged prototype uploads from one client: per observed
  // sample its class and projected embedding, in observation order.
  // FinishRound replays these into proto_sum_/proto_count_ in participant
  // then sample order — the exact floating-point op sequence the eager
  // serial accumulation performed, keeping parallel runs bit-identical.
  struct ProtoStage {
    std::vector<int> classes;       // one per sample
    std::vector<Scalar> embeddings; // proto_dim_ values per sample
  };

  // Thread-safe; the returned state is stable (map nodes never move).
  ClientState& GetOrCreateState(int client_id) MHB_EXCLUDES(states_mu_);
  int ArchOf(int client_id) const;
  // Projected pooled embedding [n, proto_dim] plus logits of the deepest
  // head [n, classes], through const Infer (safe from many threads).
  void EmbedAndLogits(const ClientState& state, const Tensor& x,
                      Tensor& proto_emb, Tensor& logits) const;
  Tensor DistanceLogits(const Tensor& proto_emb) const;

  std::vector<models::FamilyPtr> families_;
  double lambda_;
  int proto_dim_;
  std::uint64_t seed_;
  const fl::FlContext* ctx_ = nullptr;
  int num_classes_ = 0;

  // Created serially in BeginRound / PrepareEvaluation, except the global
  // eval committee's, which the first (possibly concurrent) GlobalLogits
  // creates; the lock covers lookup and creation, never inference.
  mutable core::Mutex states_mu_;
  std::map<int, ClientState> states_ MHB_GUARDED_BY(states_mu_);
  // Global prototypes [classes, proto_dim]; empty until the first round
  // completes.
  Tensor global_protos_;
  // Per-round accumulators, filled serially in FinishRound from staged_.
  Tensor proto_sum_;
  std::vector<double> proto_count_;
  // Current round's participants (dispatch order) and their staged uploads.
  std::vector<int> round_participants_;
  std::vector<ProtoStage> staged_;
  std::vector<std::size_t> slot_of_client_;
};

}  // namespace mhbench::algorithms
