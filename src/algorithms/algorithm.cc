#include "algorithms/algorithm.h"

#include <algorithm>

#include "fl/checkpoint.h"
#include "fl/client.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::algorithms {

namespace {

std::int64_t NumParams(const fl::ClientUpdate& update) {
  return static_cast<std::int64_t>(update.values.size());
}

}  // namespace

WeightSharingAlgorithm::WeightSharingAlgorithm(models::FamilyPtr family,
                                               std::uint64_t seed)
    : family_(std::move(family)), seed_(seed) {
  MHB_CHECK(family_ != nullptr);
}

void WeightSharingAlgorithm::Setup(const fl::FlContext& ctx, Rng& rng) {
  ctx_ = &ctx;
  Rng init = rng.Fork(seed_);
  global_ = std::make_unique<fl::GlobalModel>(family_, init);
}

double WeightSharingAlgorithm::ClientCapacity(int client_id) const {
  MHB_CHECK(ctx_ != nullptr);
  return ctx_->assignments.at(static_cast<std::size_t>(client_id)).capacity;
}

void WeightSharingAlgorithm::BeginRound(int round,
                                        const std::vector<int>& participants) {
  MHB_CHECK(ctx_ != nullptr) << "Setup not called";
  if (!participants.empty()) last_round_ = round;
  staged_.Begin(participants);
}

void WeightSharingAlgorithm::RunClient(int client_id, int round, Rng& rng) {
  MHB_CHECK(ctx_ != nullptr) << "Setup not called";
  fl::ClientUpdate& slot = staged_.For(client_id);
  const models::BuildSpec spec = ClientSpec(client_id, round, rng);
  // Fork advances `rng`: this draw, once the model's init stream, keeps
  // the training stream below where it has always started.
  rng.Fork(0xB1D);
  obs::Span build_span("build_submodel", "client");
  build_span.Arg("client", static_cast<std::int64_t>(client_id));
  models::BuiltModel& built = global_->TrainingModel(spec);
  build_span.End();
  const data::Dataset& shard =
      ctx_->shards.at(static_cast<std::size_t>(client_id));
  {
    obs::Span train_span("local_train", "client");
    train_span.Arg("client", static_cast<std::int64_t>(client_id));
    train_span.Arg("samples", static_cast<std::int64_t>(shard.size()));
    TrainClientModel(built, shard, rng);
  }
  const double weight = weighting_ == AggregationWeighting::kDataSize
                            ? static_cast<double>(shard.size())
                            : 1.0;
  // Stage the upload; accumulation is deferred to FinishRound so concurrent
  // participants never touch the shared averager.
  obs::Span extract_span("extract_update", "client");
  extract_span.Arg("client", static_cast<std::int64_t>(client_id));
  slot =
      fl::ExtractUpdate(*built.net, built.mapping, global_->store(), weight);
  if (extract_span) extract_span.Arg("params", NumParams(slot));
}

// mhb-obs-phase: serial — FinishRound merges at the round barrier.
void WeightSharingAlgorithm::FinishRound(int round, Rng& rng) {
  obs::Registry* const reg = obs::CurrentObs().registry;
  obs::Span merge_span("aggregate", "server");
  std::int64_t merged = 0;
  std::int64_t params = 0;
  for (const auto& update : staged_.uploads()) {
    if (!update.empty()) {
      averager_.Accumulate(update, global_->store());
      ++merged;
      params += NumParams(update);
    }
  }
  staged_.Clear();
  global_->StoreChanged();
  if (!averager_.empty()) {
    averager_.ApplyTo(global_->store());
  }
  merge_span.Arg("updates", merged);
  merge_span.End();
  if (reg != nullptr) {
    reg->AddNamed("agg_updates", merged);
    reg->AddNamed("upload_params", params);
  }
  PostAggregate(round, rng);
}

void WeightSharingAlgorithm::PostAggregate(int /*round*/, Rng& /*rng*/) {}

void WeightSharingAlgorithm::SaveState(fl::SnapshotWriter& writer) const {
  MHB_CHECK(global_ != nullptr) << "Setup not called";
  writer.WriteString(name());
  writer.WriteI32(last_round_);
  writer.WriteBytes(global_->store().Serialize());
  SaveExtraState(writer);
}

void WeightSharingAlgorithm::LoadState(fl::SnapshotReader& reader) {
  MHB_CHECK(global_ != nullptr) << "Setup not called";
  const std::string saved = reader.ReadString();
  MHB_CHECK_EQ(saved, name()) << "algorithm state belongs to" << saved;
  last_round_ = reader.ReadI32();
  global_->store() = fl::ParamStore::Deserialize(reader.ReadBytes());
  global_->StoreChanged();
  LoadExtraState(reader);
}

void WeightSharingAlgorithm::SaveExtraState(
    fl::SnapshotWriter& /*writer*/) const {}

void WeightSharingAlgorithm::LoadExtraState(fl::SnapshotReader& /*reader*/) {}

double WeightSharingAlgorithm::MaxCapacity() const {
  MHB_CHECK(ctx_ != nullptr);
  double m = 0.0;
  for (const auto& a : ctx_->assignments) m = std::max(m, a.capacity);
  return m > 0 ? m : 1.0;
}

models::BuildSpec WeightSharingAlgorithm::GlobalEvalSpec() {
  return models::BuildSpec{};
}

Tensor WeightSharingAlgorithm::GlobalLogits(const Tensor& x) {
  // Evaluation defaults to batch statistics (HeteroFL's static batch
  // norm): running BN statistics averaged over *different-width*
  // sub-networks are mutually inconsistent, so eval-mode normalization
  // collapses.  Batch statistics over the evaluation batch are the sBN
  // equivalent; set_sbn_eval(false) exposes the collapse for ablation.
  models::BuildSpec spec = GlobalEvalSpec();
  if (!UseEnsembleEval()) {
    return global_->Model(spec).net->Infer(x, EvalNormStats());
  }
  spec.multi_head = true;
  auto logits =
      global_->Model(spec).trunk().InferHeads(x, EvalNormStats()).logits;
  Tensor mean = logits.front();
  for (std::size_t h = 1; h < logits.size(); ++h) mean.AddInPlace(logits[h]);
  mean.Scale(1.0f / static_cast<Scalar>(logits.size()));
  return mean;
}

models::BuildSpec WeightSharingAlgorithm::EvalSpec(int client_id) {
  Rng fixed(seed_ ^ (static_cast<std::uint64_t>(client_id) + 0xE7A1));
  return ClientSpec(client_id, last_round_, fixed);
}

void WeightSharingAlgorithm::PrepareEvaluation() {
  for (int c = 0; c < ctx_->num_clients(); ++c) global_->Model(EvalSpec(c));
}

Tensor WeightSharingAlgorithm::ClientLogits(int client_id, const Tensor& x) {
  // sBN, see GlobalLogits.
  return global_->Model(EvalSpec(client_id)).net->Infer(x, EvalNormStats());
}

double WeightSharingAlgorithm::TrainClientModel(models::BuiltModel& built,
                                                const data::Dataset& shard,
                                                Rng& rng) {
  return fl::TrainLocal(*built.net, shard, ctx_->local_options(last_round_), rng);
}

}  // namespace mhbench::algorithms
