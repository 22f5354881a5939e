#include "algorithms/algorithm.h"

#include <algorithm>

#include "fl/checkpoint.h"
#include "fl/client.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::algorithms {

namespace {

std::int64_t NumParams(const fl::ClientUpdate& update) {
  std::int64_t params = 0;
  for (const auto& v : update.values) {
    params += static_cast<std::int64_t>(v.numel());
  }
  return params;
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
  round_participants_ = participants;
  staged_.assign(participants.size(), fl::ClientUpdate{});
  slot_of_client_.assign(static_cast<std::size_t>(ctx_->num_clients()), 0);
  for (std::size_t i = 0; i < participants.size(); ++i) {
    slot_of_client_[static_cast<std::size_t>(participants[i])] = i;
  }
}

std::size_t WeightSharingAlgorithm::SlotOf(int client_id) const {
  MHB_CHECK_LT(static_cast<std::size_t>(client_id), slot_of_client_.size())
      << "RunClient outside BeginRound participants";
  return slot_of_client_[static_cast<std::size_t>(client_id)];
}

void WeightSharingAlgorithm::RunClient(int client_id, int round, Rng& rng) {
  MHB_CHECK(ctx_ != nullptr) << "Setup not called";
  obs::Tracer* const tracer = ctx_->config->obs.tracer;
  const models::BuildSpec spec = ClientSpec(client_id, round, rng);
  Rng build_rng = rng.Fork(0xB1D);
  obs::Span build_span(tracer, "build_submodel", "client");
  build_span.Arg("client", static_cast<std::int64_t>(client_id));
  models::BuiltModel built = family_->Build(spec, build_rng);
  global_->store().LoadInto(*built.net, built.mapping);
  build_span.End();
  const data::Dataset& shard =
      ctx_->shards.at(static_cast<std::size_t>(client_id));
  {
    obs::Span train_span(tracer, "local_train", "client");
    train_span.Arg("client", static_cast<std::int64_t>(client_id));
    train_span.Arg("samples", static_cast<std::int64_t>(shard.size()));
    TrainClientModel(built, client_id, shard, rng);
  }
  const double weight = weighting_ == AggregationWeighting::kDataSize
                            ? static_cast<double>(shard.size())
                            : 1.0;
  // Stage the upload; accumulation is deferred to FinishRound so concurrent
  // participants never touch the shared averager.
  obs::Span extract_span(tracer, "extract_update", "client");
  extract_span.Arg("client", static_cast<std::int64_t>(client_id));
  fl::ClientUpdate update =
      fl::ExtractUpdate(*built.net, built.mapping, weight);
  if (tracer != nullptr) extract_span.Arg("params", NumParams(update));
  staged_[SlotOf(client_id)] = std::move(update);
}

// mhb-obs-phase: serial — FinishRound merges at the round barrier.
void WeightSharingAlgorithm::FinishRound(int round, Rng& rng) {
  obs::Registry* const reg = ctx_ != nullptr ? ctx_->config->obs.registry
                                             : nullptr;
  obs::Span merge_span(ctx_ != nullptr ? ctx_->config->obs.tracer : nullptr,
                       "aggregate", "server");
  std::int64_t merged = 0;
  std::int64_t params = 0;
  for (const auto& update : staged_) {
    if (!update.empty()) {
      averager_.Accumulate(update, global_->store());
      ++merged;
      params += NumParams(update);
    }
  }
  staged_.clear();
  {
    core::MutexLock lock(eval_model_mu_);
    eval_model_.reset();
  }
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
  {
    core::MutexLock lock(eval_model_mu_);
    eval_model_.reset();
  }
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

const models::BuiltModel& WeightSharingAlgorithm::GlobalEvalModel() {
  core::MutexLock lock(eval_model_mu_);
  if (eval_model_ == nullptr) {
    models::BuildSpec spec = GlobalEvalSpec();
    if (UseEnsembleEval()) spec.multi_head = true;
    Rng build_rng(seed_ ^ 0x6E0BULL);
    eval_model_ = std::make_unique<models::BuiltModel>(
        family_->Build(spec, build_rng));
    global_->store().LoadInto(*eval_model_->net, eval_model_->mapping);
  }
  return *eval_model_;
}

Tensor WeightSharingAlgorithm::GlobalLogits(const Tensor& x) {
  // Evaluation defaults to batch statistics (HeteroFL's static batch
  // norm): running BN statistics averaged over *different-width*
  // sub-networks are mutually inconsistent, so eval-mode normalization
  // collapses.  Batch statistics over the evaluation batch are the sBN
  // equivalent; set_sbn_eval(false) exposes the collapse for ablation.
  const models::BuiltModel& built = GlobalEvalModel();
  if (!UseEnsembleEval()) return built.net->Infer(x, EvalNormStats());
  auto logits = built.trunk().InferHeads(x, EvalNormStats()).logits;
  Tensor mean = logits.front();
  for (std::size_t h = 1; h < logits.size(); ++h) mean.AddInPlace(logits[h]);
  mean.Scale(1.0f / static_cast<Scalar>(logits.size()));
  return mean;
}

models::BuildSpec WeightSharingAlgorithm::EvalSpec(int client_id) {
  Rng fixed(seed_ ^ (static_cast<std::uint64_t>(client_id) + 0xE7A1));
  return ClientSpec(client_id, last_round_, fixed);
}

Tensor WeightSharingAlgorithm::ClientLogits(int client_id, const Tensor& x) {
  const models::BuildSpec spec = EvalSpec(client_id);
  Rng build_rng(seed_ ^ 0xC11E);
  models::BuiltModel built = family_->Build(spec, build_rng);
  global_->store().LoadInto(*built.net, built.mapping);
  return built.net->Infer(x, EvalNormStats());  // sBN, see GlobalLogits
}

double WeightSharingAlgorithm::TrainClientModel(models::BuiltModel& built,
                                                int /*client_id*/,
                                                const data::Dataset& shard,
                                                Rng& rng) {
  return fl::TrainLocal(*built.net, shard, ctx_->local_options(last_round_), rng);
}

}  // namespace mhbench::algorithms
