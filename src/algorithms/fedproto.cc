#include "algorithms/fedproto.h"

#include "data/loader.h"
#include "fl/checkpoint.h"
#include "fl/param_store.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace mhbench::algorithms {
namespace {

using models::TrunkModel;

// Pools an embedding to [N, F]: channels-first means averaging all trailing
// spatial dims; sequence-first means averaging the sequence axis.
Tensor PoolEmbedding(const Tensor& emb, TrunkModel::EmbeddingLayout layout) {
  MHB_CHECK_GE(emb.ndim(), 2);
  const int n = emb.dim(0);
  if (emb.ndim() == 2) return emb;
  if (layout == TrunkModel::EmbeddingLayout::kSeqFirst) {
    MHB_CHECK_EQ(emb.ndim(), 3);  // [N, L, D]
    const int l = emb.dim(1), d = emb.dim(2);
    Tensor out({n, d});
    for (int b = 0; b < n; ++b) {
      for (int t = 0; t < l; ++t) {
        for (int j = 0; j < d; ++j) {
          out[static_cast<std::size_t>(b) * d + j] +=
              emb[(static_cast<std::size_t>(b) * l + t) * d + j];
        }
      }
    }
    out.Scale(1.0f / static_cast<Scalar>(l));
    return out;
  }
  // Channels-first: [N, C, ...spatial].
  const int c = emb.dim(1);
  const std::size_t spatial = emb.numel() / (static_cast<std::size_t>(n) * c);
  Tensor out({n, c});
  const Scalar* p = emb.data().data();
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      Scalar acc = 0;
      const Scalar* plane =
          p + (static_cast<std::size_t>(b) * c + ch) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) acc += plane[i];
      out[static_cast<std::size_t>(b) * c + ch] =
          acc / static_cast<Scalar>(spatial);
    }
  }
  return out;
}

// Adjoint of PoolEmbedding.
Tensor UnpoolGrad(const Tensor& grad_pooled, const Shape& emb_shape,
                  TrunkModel::EmbeddingLayout layout) {
  if (static_cast<int>(emb_shape.size()) == 2) return grad_pooled;
  Tensor out(emb_shape);
  const int n = emb_shape[0];
  if (layout == TrunkModel::EmbeddingLayout::kSeqFirst) {
    const int l = emb_shape[1], d = emb_shape[2];
    const Scalar inv = 1.0f / static_cast<Scalar>(l);
    for (int b = 0; b < n; ++b) {
      for (int t = 0; t < l; ++t) {
        for (int j = 0; j < d; ++j) {
          out[(static_cast<std::size_t>(b) * l + t) * d + j] =
              grad_pooled[static_cast<std::size_t>(b) * d + j] * inv;
        }
      }
    }
    return out;
  }
  const int c = emb_shape[1];
  const std::size_t spatial = out.numel() / (static_cast<std::size_t>(n) * c);
  const Scalar inv = 1.0f / static_cast<Scalar>(spatial);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const Scalar g =
          grad_pooled[static_cast<std::size_t>(b) * c + ch] * inv;
      Scalar* plane = out.data().data() +
                      (static_cast<std::size_t>(b) * c + ch) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) plane[i] = g;
    }
  }
  return out;
}

}  // namespace

FedProto::FedProto(std::vector<models::FamilyPtr> families, double lambda,
                   int proto_dim, std::uint64_t seed)
    : families_(std::move(families)),
      lambda_(lambda),
      proto_dim_(proto_dim),
      seed_(seed) {
  MHB_CHECK(!families_.empty());
  MHB_CHECK_GE(lambda_, 0.0);
  MHB_CHECK_GT(proto_dim_, 0);
}

void FedProto::Setup(const fl::FlContext& ctx, Rng& /*rng*/) {
  ctx_ = &ctx;
  num_classes_ = ctx.task->train.num_classes;
  proto_sum_ = Tensor({num_classes_, proto_dim_});
  proto_count_.assign(static_cast<std::size_t>(num_classes_), 0.0);
}

int FedProto::ArchOf(int client_id) const {
  const int hint =
      ctx_->assignments.at(static_cast<std::size_t>(client_id)).arch_index;
  return hint % static_cast<int>(families_.size());
}

FedProto::ClientState& FedProto::GetOrCreateState(int client_id) {
  core::MutexLock lock(states_mu_);
  auto it = states_.find(client_id);
  if (it != states_.end()) return it->second;
  ClientState state;
  state.arch = ArchOf(client_id);
  Rng rng(seed_ ^ (static_cast<std::uint64_t>(client_id) * 0x9E37ULL + 1));
  models::BuildSpec spec;
  state.model = families_[static_cast<std::size_t>(state.arch)]->Build(spec, rng);
  state.model.trunk().set_capture_embedding(true);
  // Projection from the family's embedding width into prototype space.
  const Tensor x_probe = [&] {
    Shape s = families_[static_cast<std::size_t>(state.arch)]->sample_shape();
    s.insert(s.begin(), 1);
    return Tensor(s);  // zeros are fine for a shape probe
  }();
  const Tensor pooled = PoolEmbedding(
      state.model.trunk()
          .InferHeads(x_probe, nn::NormStats::kRunning, /*embedding=*/true)
          .embedding,
      state.model.trunk().embedding_layout());
  const int emb_dim = pooled.dim(1);
  state.proj = std::make_unique<nn::Linear>(
      nn::KaimingNormal({proto_dim_, emb_dim}, emb_dim, rng),
      Tensor({proto_dim_}));
  return states_.emplace(client_id, std::move(state)).first->second;
}

void FedProto::EmbedAndLogits(const ClientState& state, const Tensor& x,
                              Tensor& proto_emb, Tensor& logits) const {
  const TrunkModel& trunk = state.model.trunk();
  auto out = trunk.InferHeads(x, nn::NormStats::kRunning, /*embedding=*/true);
  logits = std::move(out.logits.back());
  proto_emb = state.proj->Infer(
      PoolEmbedding(out.embedding, trunk.embedding_layout()),
      nn::NormStats::kRunning);
}

Tensor FedProto::DistanceLogits(const Tensor& proto_emb) const {
  MHB_CHECK(!global_protos_.empty());
  const int n = proto_emb.dim(0);
  Tensor logits({n, num_classes_});
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < num_classes_; ++c) {
      double d2 = 0.0;
      for (int j = 0; j < proto_dim_; ++j) {
        const double d =
            proto_emb[static_cast<std::size_t>(i) * proto_dim_ + j] -
            global_protos_[static_cast<std::size_t>(c) * proto_dim_ + j];
        d2 += d * d;
      }
      logits[static_cast<std::size_t>(i) * num_classes_ + c] =
          static_cast<Scalar>(-d2);
    }
  }
  return logits;
}

void FedProto::BeginRound(int /*round*/, const std::vector<int>& participants) {
  MHB_CHECK(ctx_ != nullptr);
  round_participants_ = participants;
  staged_.assign(participants.size(), ProtoStage{});
  slot_of_client_.assign(static_cast<std::size_t>(ctx_->num_clients()), 0);
  for (std::size_t i = 0; i < participants.size(); ++i) {
    slot_of_client_[static_cast<std::size_t>(participants[i])] = i;
    // Create states serially; client state construction is seeded purely by
    // the client id, so early creation leaves contents unchanged.
    GetOrCreateState(participants[i]);
  }
}

void FedProto::PrepareEvaluation() {
  MHB_CHECK(ctx_ != nullptr);
  for (int c = 0; c < ctx_->num_clients(); ++c) GetOrCreateState(c);
}

void FedProto::RunClient(int client_id, int round, Rng& rng) {
  MHB_CHECK(ctx_ != nullptr);
  ClientState& state = GetOrCreateState(client_id);
  auto& trunk = state.model.trunk();
  const data::Dataset& shard =
      ctx_->shards.at(static_cast<std::size_t>(client_id));
  const auto opts = ctx_->local_options(round);

  nn::OptimizerOptions opt_opts;
  opt_opts.kind = opts.optimizer;
  opt_opts.lr = opts.lr;
  opt_opts.momentum = opts.momentum;
  opt_opts.weight_decay = opts.weight_decay;
  const auto model_opt = nn::MakeOptimizer(trunk, opt_opts);
  const auto proj_opt = nn::MakeOptimizer(*state.proj, opt_opts);
  nn::Optimizer& sgd_model = *model_opt;
  nn::Optimizer& sgd_proj = *proj_opt;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    data::BatchIterator batches(shard, opts.batch_size, rng);
    Tensor x;
    std::vector<int> y;
    while (batches.Next(x, y)) {
      sgd_model.ZeroGrad();
      sgd_proj.ZeroGrad();
      auto logits = trunk.ForwardHeads(x);
      std::vector<Tensor> grads(logits.size());
      Tensor ce_grad;
      nn::SoftmaxCrossEntropy(logits.back(), y, ce_grad);
      grads.back() = std::move(ce_grad);

      Tensor emb_grad;
      if (!global_protos_.empty() && lambda_ > 0) {
        const Tensor& emb = trunk.last_embedding();
        const Tensor pooled = PoolEmbedding(emb, trunk.embedding_layout());
        const Tensor proto_emb = state.proj->Forward(pooled);
        // Targets: each sample's class prototype.
        Tensor target({proto_emb.dim(0), proto_dim_});
        for (int i = 0; i < proto_emb.dim(0); ++i) {
          const int cls = y[static_cast<std::size_t>(i)];
          for (int j = 0; j < proto_dim_; ++j) {
            target[static_cast<std::size_t>(i) * proto_dim_ + j] =
                global_protos_[static_cast<std::size_t>(cls) * proto_dim_ + j];
          }
        }
        Tensor mse_grad;
        nn::MeanSquaredError(proto_emb, target, mse_grad);
        mse_grad.Scale(static_cast<Scalar>(lambda_));
        const Tensor pooled_grad = state.proj->Backward(mse_grad);
        emb_grad =
            UnpoolGrad(pooled_grad, emb.shape(), trunk.embedding_layout());
      }
      trunk.BackwardHeads(grads, emb_grad);
      if (opts.grad_clip > 0) sgd_model.ClipGradNorm(opts.grad_clip);
      sgd_model.Step();
      sgd_proj.Step();
    }
  }

  // Stage prototype uploads into this client's private buffer: the class
  // and projected embedding of every sample, in observation order.  The
  // shared accumulators are only touched in FinishRound (serial).
  ProtoStage& stage = staged_[slot_of_client_[static_cast<std::size_t>(
      client_id)]];
  data::BatchIterator batches(shard, opts.batch_size, rng, /*shuffle=*/false);
  Tensor x;
  std::vector<int> y;
  while (batches.Next(x, y)) {
    Tensor proto_emb, logits;
    EmbedAndLogits(state, x, proto_emb, logits);
    for (int i = 0; i < proto_emb.dim(0); ++i) {
      stage.classes.push_back(y[static_cast<std::size_t>(i)]);
      for (int j = 0; j < proto_dim_; ++j) {
        stage.embeddings.push_back(
            proto_emb[static_cast<std::size_t>(i) * proto_dim_ + j]);
      }
    }
  }
}

void FedProto::FinishRound(int /*round*/, Rng& /*rng*/) {
  // Replay staged uploads in participant order, sample order — the same
  // float additions, in the same order, as eager serial accumulation.
  for (const ProtoStage& stage : staged_) {
    for (std::size_t s = 0; s < stage.classes.size(); ++s) {
      const int cls = stage.classes[s];
      for (int j = 0; j < proto_dim_; ++j) {
        proto_sum_[static_cast<std::size_t>(cls) * proto_dim_ + j] +=
            stage.embeddings[s * static_cast<std::size_t>(proto_dim_) +
                             static_cast<std::size_t>(j)];
      }
      proto_count_[static_cast<std::size_t>(cls)] += 1.0;
    }
  }
  staged_.clear();

  bool any = false;
  for (double c : proto_count_) {
    if (c > 0) any = true;
  }
  if (!any) return;
  if (global_protos_.empty()) {
    global_protos_ = Tensor({num_classes_, proto_dim_});
  }
  for (int c = 0; c < num_classes_; ++c) {
    const double count = proto_count_[static_cast<std::size_t>(c)];
    if (count <= 0) continue;  // keep previous prototype
    for (int j = 0; j < proto_dim_; ++j) {
      global_protos_[static_cast<std::size_t>(c) * proto_dim_ + j] =
          static_cast<Scalar>(
              proto_sum_[static_cast<std::size_t>(c) * proto_dim_ + j] /
              count);
    }
  }
  proto_sum_.Fill(0.0f);
  proto_count_.assign(static_cast<std::size_t>(num_classes_), 0.0);
}

Tensor FedProto::GlobalLogits(const Tensor& x) {
  // Committee: the first client of each architecture.
  std::vector<int> committee;
  std::vector<bool> seen(families_.size(), false);
  for (int c = 0; c < ctx_->num_clients(); ++c) {
    const auto a = static_cast<std::size_t>(ArchOf(c));
    if (!seen[a]) {
      seen[a] = true;
      committee.push_back(c);
    }
  }
  Tensor mean;
  for (int c : committee) {
    ClientState& state = GetOrCreateState(c);
    Tensor proto_emb, logits;
    EmbedAndLogits(state, x, proto_emb, logits);
    Tensor member = global_protos_.empty() ? logits
                                           : DistanceLogits(proto_emb);
    if (mean.empty()) {
      mean = std::move(member);
    } else {
      mean.AddInPlace(member);
    }
  }
  mean.Scale(1.0f / static_cast<Scalar>(committee.size()));
  return mean;
}

Tensor FedProto::ClientLogits(int client_id, const Tensor& x) {
  ClientState& state = GetOrCreateState(client_id);
  Tensor proto_emb, logits;
  EmbedAndLogits(state, x, proto_emb, logits);
  if (global_protos_.empty()) return logits;
  return DistanceLogits(proto_emb);
}

void FedProto::SaveState(fl::SnapshotWriter& writer) const {
  writer.WriteString(name());
  // global_protos_ is empty until the first participating round; an empty
  // tensor is not round-trippable through the tensor serializer, so gate
  // it behind a presence flag.
  writer.WriteU8(global_protos_.empty() ? 0 : 1);
  if (!global_protos_.empty()) writer.WriteTensor(global_protos_);
  // proto_sum_ / proto_count_ / staged_ are empty at every round barrier
  // (FinishRound drains them), so only the per-client personal models and
  // projection heads persist.
  core::MutexLock lock(states_mu_);
  writer.WriteU32(static_cast<std::uint32_t>(states_.size()));
  for (const auto& [client_id, state] : states_) {
    writer.WriteI32(client_id);
    writer.WriteI32(state.arch);
    writer.WriteBytes(fl::ParamStore::FromModule(*state.model.net).Serialize());
    writer.WriteBytes(fl::ParamStore::FromModule(*state.proj).Serialize());
  }
}

void FedProto::LoadState(fl::SnapshotReader& reader) {
  MHB_CHECK(ctx_ != nullptr) << "Setup not called";
  const std::string saved = reader.ReadString();
  MHB_CHECK_EQ(saved, name()) << "algorithm state belongs to" << saved;
  if (reader.ReadU8() != 0) {
    global_protos_ = reader.ReadTensor();
    MHB_CHECK(global_protos_.shape() == Shape({num_classes_, proto_dim_}))
        << "restored prototype shape mismatch";
  } else {
    global_protos_ = Tensor();
  }
  const std::uint32_t count = reader.ReadU32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const int client_id = reader.ReadI32();
    const int arch = reader.ReadI32();
    // Recreate the state along the same deterministic path as a live run,
    // then overwrite the trained parameters.
    ClientState& state = GetOrCreateState(client_id);
    MHB_CHECK_EQ(state.arch, arch)
        << "restored arch mismatch for client" << client_id;
    fl::ParamStore::Deserialize(reader.ReadBytes()).LoadAll(*state.model.net);
    fl::ParamStore::Deserialize(reader.ReadBytes()).LoadAll(*state.proj);
  }
}

}  // namespace mhbench::algorithms
