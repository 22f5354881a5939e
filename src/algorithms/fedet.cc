#include "algorithms/fedet.h"

#include <numeric>

#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/param_store.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace mhbench::algorithms {
namespace {

// Softmax temperature of the teachers' consensus and the student's
// distillation loss.
constexpr double kTemperature = 2.0;
// Server distillation per round: kDistillBatches SGD steps at kServerLr,
// each on a random batch of the kPublicSamples-sample public slice.
constexpr int kDistillBatches = 10;
constexpr int kPublicSamples = 128;
constexpr double kServerLr = 0.1;

}  // namespace

FedEt::FedEt(std::vector<models::FamilyPtr> families, std::uint64_t seed)
    : families_(std::move(families)), seed_(seed) {
  MHB_CHECK(!families_.empty());
}

void FedEt::Setup(const fl::FlContext& ctx, Rng& rng) {
  ctx_ = &ctx;
  group_models_.clear();
  group_averagers_.assign(families_.size(), fl::MaskedAverager());
  group_round_clients_.assign(families_.size(), 0);
  for (std::size_t a = 0; a < families_.size(); ++a) {
    Rng init = rng.Fork(a + 1);
    group_models_.push_back(
        std::make_unique<fl::GlobalModel>(families_[a], init));
  }
  // Server model: the largest architecture in the pool.
  Rng server_init = rng.Fork(0x5E57);
  server_model_ = families_.back()->Build(models::BuildSpec{}, server_init);

  // Public unlabeled slice of the training pool.
  const int n = std::min<int>(kPublicSamples,
                              static_cast<int>(ctx.task->train.size()));
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  public_features_ = ctx.task->train.GatherFeatures(idx);
}

int FedEt::ArchOf(int client_id) const {
  const int hint =
      ctx_->assignments.at(static_cast<std::size_t>(client_id)).arch_index;
  return hint % static_cast<int>(families_.size());
}

void FedEt::BeginRound(int /*round*/, const std::vector<int>& participants) {
  MHB_CHECK(ctx_ != nullptr);
  staged_.Begin(participants);
}

void FedEt::RunClient(int client_id, int /*round*/, Rng& rng) {
  MHB_CHECK(ctx_ != nullptr);
  fl::ClientUpdate& slot = staged_.For(client_id);
  const int arch = ArchOf(client_id);
  const auto au = static_cast<std::size_t>(arch);
  // Keeps the training stream's start; see WeightSharingAlgorithm::RunClient.
  rng.Fork(0xB1D);
  models::BuiltModel& built =
      group_models_[au]->TrainingModel(models::BuildSpec{});
  const data::Dataset& shard =
      ctx_->shards.at(static_cast<std::size_t>(client_id));
  fl::TrainLocal(*built.net, shard, fl::LocalTrainOptions{}, rng);
  // Stage the upload; the per-group averagers and counters are shared, so
  // they are only touched in the serial merge below.
  slot = fl::ExtractUpdate(*built.net, built.mapping,
                           group_models_[au]->store(),
                           static_cast<double>(shard.size()));
}

void FedEt::FinishRound(int /*round*/, Rng& rng) {
  // Merge staged uploads into the per-group averagers in participant order
  // (the order eager serial accumulation used).
  const std::vector<fl::ClientUpdate>& uploads = staged_.uploads();
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (uploads[i].empty()) continue;
    const auto au =
        static_cast<std::size_t>(ArchOf(staged_.participants()[i]));
    group_averagers_[au].Accumulate(uploads[i], group_models_[au]->store());
    group_round_clients_[au] += 1;
  }
  staged_.Clear();

  // Within-group FedAvg; the group models reload at their next use.
  for (std::size_t a = 0; a < families_.size(); ++a) {
    if (!group_averagers_[a].empty()) {
      group_averagers_[a].ApplyTo(group_models_[a]->store());
      group_models_[a]->StoreChanged();
    }
  }

  // Confidence-weighted ensemble distillation into the server model.
  // Group weight = number of clients that participated this round.
  std::vector<double> group_weight(families_.size(), 0.0);
  double total = 0.0;
  for (std::size_t a = 0; a < families_.size(); ++a) {
    group_weight[a] = group_round_clients_[a];
    total += group_weight[a];
  }
  group_round_clients_.assign(families_.size(), 0);
  if (total <= 0) return;

  // Every step's random public batch, drawn up front in the serial rng
  // order.
  const int n_public = public_features_.dim(0);
  const int batch = std::max(1, n_public / kDistillBatches);
  std::vector<Tensor> xs(static_cast<std::size_t>(kDistillBatches));
  for (Tensor& x : xs) {
    std::vector<int> idx(static_cast<std::size_t>(batch));
    for (auto& i : idx) {
      i = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(n_public)));
    }
    Shape bshape = public_features_.shape();
    bshape[0] = batch;
    x = Tensor(bshape);
    const std::size_t elems = x.numel() / static_cast<std::size_t>(batch);
    for (int i = 0; i < batch; ++i) {
      const Scalar* src =
          public_features_.data().data() +
          static_cast<std::size_t>(idx[static_cast<std::size_t>(i)]) * elems;
      Scalar* dst = x.data().data() + static_cast<std::size_t>(i) * elems;
      for (std::size_t e = 0; e < elems; ++e) dst[e] = src[e];
    }
  }

  // The group models stay fixed through the distillation, so every
  // (step, group) teacher is independent and goes into its own slot.  The
  // teachers run on the pool, pipelined against the student: the phase for
  // step s computes step s's teachers while one item trains the student on
  // step s - 1, whose teachers the previous phase completed.  The
  // student's SGD steps stay serial and in order; each phase joins before
  // the next starts.
  std::vector<std::size_t> groups;  // weighted groups, in group order
  for (std::size_t a = 0; a < families_.size(); ++a) {
    if (group_weight[a] > 0) groups.push_back(a);
  }
  const std::size_t g = groups.size();
  std::vector<Tensor> probs(xs.size() * g);
  nn::Sgd sgd(*server_model_.net, {kServerLr, /*momentum=*/0.9});
  for (std::size_t step = 0; step <= xs.size(); ++step) {
    const std::size_t student = step > 0 ? 1 : 0;  // item 0, when present
    const std::size_t teachers = step < xs.size() ? g : 0;
    core::ParallelFor(ctx_->pool, student + teachers, [&](std::size_t i) {
      if (i < student) {
        // Weighted consensus teacher, summed in group order.
        Tensor teacher = std::move(probs[(step - 1) * g]);
        for (std::size_t k = 1; k < g; ++k) {
          teacher.AddInPlace(probs[(step - 1) * g + k]);
        }
        DistillStep(xs[step - 1], teacher, sgd);
        return;
      }
      obs::ProfileScope profile_scope("distill_teacher");
      const std::size_t k = i - student;
      const std::size_t a = groups[k];
      Tensor p = nn::SoftmaxWithTemperature(group_models_[a]->Logits(xs[step]),
                                            kTemperature);
      p.Scale(static_cast<Scalar>(group_weight[a] / total));
      probs[step * g + k] = std::move(p);
    });
  }
}

void FedEt::DistillStep(const Tensor& x, const Tensor& teacher,
                        nn::Sgd& sgd) {
  // Per-sample confidence weighting (Fed-ET's weighted consensus): scale
  // each sample's soft target toward one-hot confidence by re-weighting
  // the KD gradient with the teacher's max probability.
  const int batch = teacher.dim(0);
  const int classes = teacher.dim(1);
  sgd.ZeroGrad();
  const Tensor student = server_model_.net->Forward(x);
  Tensor kd_grad;
  nn::DistillationKL(student, teacher, kTemperature, kd_grad);
  for (int i = 0; i < batch; ++i) {
    Scalar conf = 0;
    for (int c = 0; c < classes; ++c) {
      conf = std::max(conf, teacher[static_cast<std::size_t>(i) * classes + c]);
    }
    for (int c = 0; c < classes; ++c) {
      kd_grad[static_cast<std::size_t>(i) * classes + c] *= conf;
    }
  }
  server_model_.net->Backward(kd_grad);
  sgd.Step();
}

Tensor FedEt::GlobalLogits(const Tensor& x) {
  return server_model_.net->Infer(x, nn::NormStats::kRunning);
}

Tensor FedEt::ClientLogits(int client_id, const Tensor& x) {
  return group_models_[static_cast<std::size_t>(ArchOf(client_id))]->Logits(x);
}

void FedEt::SaveState(fl::SnapshotWriter& writer) const {
  MHB_CHECK(!group_models_.empty()) << "Setup not called";
  writer.WriteString(name());
  writer.WriteU32(static_cast<std::uint32_t>(group_models_.size()));
  for (const auto& group : group_models_) {
    writer.WriteBytes(group->store().Serialize());
  }
  writer.WriteBytes(
      fl::ParamStore::FromModule(*server_model_.net).Serialize());
}

void FedEt::LoadState(fl::SnapshotReader& reader) {
  MHB_CHECK(!group_models_.empty()) << "Setup not called";
  const std::string saved = reader.ReadString();
  MHB_CHECK_EQ(saved, name()) << "algorithm state belongs to" << saved;
  const std::uint32_t groups = reader.ReadU32();
  MHB_CHECK_EQ(groups, group_models_.size())
      << "restored group count mismatch";
  for (auto& group : group_models_) {
    group->store() = fl::ParamStore::Deserialize(reader.ReadBytes());
    group->StoreChanged();
  }
  fl::ParamStore::Deserialize(reader.ReadBytes()).LoadAll(*server_model_.net);
}

}  // namespace mhbench::algorithms
