// Shared base for weight-sharing MHFL algorithms (FedAvg, Fjord, SHeteroFL,
// FedRolex, DepthFL, InclusiveFL, FeDepth).
//
// These algorithms differ only in (a) which sub-model a client receives
// each round (ClientSpec), (b) the per-batch objective the client trains it
// with (TrainClientModel hands one to fl::TrainLocal, the loop every
// algorithm trains through), and (c) small server-side post-processing
// hooks.  Everything else — dispatch, masked aggregation, evaluation —
// lives here.
#pragma once

#include "fl/aggregator.h"
#include "fl/engine.h"
#include "fl/server.h"

namespace mhbench::algorithms {

class WeightSharingAlgorithm : public fl::MhflAlgorithm {
 public:
  WeightSharingAlgorithm(models::FamilyPtr family, std::uint64_t seed);

  void Setup(const fl::FlContext& ctx, Rng& rng) override;
  void BeginRound(int round, const std::vector<int>& participants) override;
  // Trains the client's sub-model in the calling thread's training model
  // for its spec (fl::GlobalModel::TrainingModel) and stages the upload
  // into the client's private buffer; safe to run concurrently for
  // distinct participants.
  void RunClient(int client_id, int round, Rng& rng) override;
  // Merges staged uploads in participant order (bit-identical to eager
  // serial accumulation), applies the masked average, then PostAggregate.
  void FinishRound(int round, Rng& rng) override;
  // Loads every client's eval model serially, on the thread that later
  // destroys them.  A model first built on a pool worker would return its
  // buffers to this thread's tensor pool at teardown, piling up run after run.
  void PrepareEvaluation() override;
  // Both evaluate the global store's model for their spec (GlobalEvalSpec,
  // EvalSpec) through const Infer, so concurrent calls are safe.
  Tensor GlobalLogits(const Tensor& x) override;
  Tensor ClientLogits(int client_id, const Tensor& x) override;

  // Checkpoint hooks: the persistent state of every weight-sharing
  // algorithm at a round barrier is the global store plus the last trained
  // round (EvalSpec lookups); subclasses with extra server
  // state add it through {Save,Load}ExtraState.
  void SaveState(fl::SnapshotWriter& writer) const override;
  void LoadState(fl::SnapshotReader& reader) override;

 protected:
  // Appends / restores subclass state after the shared fields; the default
  // is stateless.  Reads must mirror writes exactly (the engine calls
  // ExpectSectionEnd after LoadState).
  virtual void SaveExtraState(fl::SnapshotWriter& writer) const;
  virtual void LoadExtraState(fl::SnapshotReader& reader);

  // The sub-model this client trains in this round.
  virtual models::BuildSpec ClientSpec(int client_id, int round,
                                       Rng& rng) = 0;
  // The model evaluated for the global-accuracy metric.  Defaults to the
  // full model; algorithms whose largest trained sub-model is smaller
  // (e.g. under memory limits no client holds ratio 1.0) override this to
  // the maximum trained capacity, matching how HeteroFL-style systems
  // report the global model.
  virtual models::BuildSpec GlobalEvalSpec();
  // The sub-model used when evaluating the client's personalized accuracy;
  // defaults to ClientSpec at the last completed round with a fixed stream.
  virtual models::BuildSpec EvalSpec(int client_id);
  // Local training: fl::TrainLocal with this algorithm's per-batch
  // objective; the default is cross-entropy on the deepest head.  Returns
  // the last epoch's mean training loss.
  virtual double TrainClientModel(models::BuiltModel& built,
                                  const data::Dataset& shard, Rng& rng);
  // Evaluate the global model with the ensemble of heads (DepthFL).
  virtual bool UseEnsembleEval() const { return false; }
  // Server-side hook after the masked average is applied.
  virtual void PostAggregate(int round, Rng& rng);

  double ClientCapacity(int client_id) const;
  // Largest capacity over all clients (available after Setup).
  double MaxCapacity() const;

 public:
  // Ablation knobs ---------------------------------------------------------
  // Static-batch-norm evaluation (default on).  With it off, evaluation
  // uses the aggregated running statistics, which are inconsistent across
  // different-width sub-networks; bench_ablation quantifies the gap.
  void set_sbn_eval(bool v) { sbn_eval_ = v; }
  // Weight client updates by their sample count (default) or uniformly.
  enum class AggregationWeighting { kDataSize, kUniform };
  void set_aggregation_weighting(AggregationWeighting w) { weighting_ = w; }

 protected:
  // Normalization GlobalLogits and ClientLogits evaluate with.
  nn::NormStats EvalNormStats() const {
    return sbn_eval_ ? nn::NormStats::kBatch : nn::NormStats::kRunning;
  }
  const fl::FlContext* ctx_ = nullptr;
  models::FamilyPtr family_;
  std::unique_ptr<fl::GlobalModel> global_;
  fl::MaskedAverager averager_;
  std::uint64_t seed_;
  int last_round_ = 0;
  bool sbn_eval_ = true;
  AggregationWeighting weighting_ = AggregationWeighting::kDataSize;
  // Current round's staged uploads; RunClient writes only its own slot.
  fl::StagedUploads<fl::ClientUpdate> staged_;
};

}  // namespace mhbench::algorithms
