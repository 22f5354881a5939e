// Client-side types: per-client assignments (model capacity + system costs),
// the one local recipe (SGD, LocalTrainOptions) and training loop every
// algorithm trains through, and the per-round participant slots clients
// stage their uploads into.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "nn/module.h"

namespace mhbench::fl {

// System costs of one federated round for a client, produced by the
// constraint builders from the device cost model.  The engine's simulated
// clock advances by max over sampled clients of (compute + comm).
struct ClientSystemProfile {
  double compute_time_s = 1.0;
  double comm_time_s = 0.0;
  double memory_mb = 0.0;
  // Round payload (upload + download) and per-round training GFLOPs, from
  // the cost model; consumed by the observability layer (bytes/FLOPs
  // counters), not by the simulated clock.
  double comm_mb = 0.0;
  double train_gflops = 0.0;
  // Probability of being online when sampled (1 = always available).
  double availability = 1.0;
  // Device-tier label for cohort observability (device::DeviceTierName —
  // "cpu" / "mem4g" / "mem16g").  Telemetry-only: consumed by the obs
  // layer's tier-keyed rollups, never by the simulated clock.  Empty means
  // untiered (synthetic/test assignments); the obs registry reports those
  // under the "untiered" cohort.
  std::string device_tier;
};

// What model a client runs and what it costs.
struct ClientAssignment {
  // Model-size ratio the heterogeneity algorithm applies (width or depth,
  // depending on the algorithm's level).
  double capacity = 1.0;
  // Architecture index into the task's topology family list (topology-level
  // algorithms only).
  int arch_index = 0;
  ClientSystemProfile system;
};

// Uniformly cycles the given capacities over `num_clients` clients
// (the literature's proportional-splitting setup; used by examples/tests
// and as the fallback when no device constraint is active).
std::vector<ClientAssignment> UniformCapacityAssignments(
    int num_clients, const std::vector<double>& capacities);

// The local recipe: every client of every algorithm trains with SGD under
// these values.  Tests vary them; the engine and the algorithms use the
// defaults.
struct LocalTrainOptions {
  int epochs = 1;
  int batch_size = 16;
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  double grad_clip = 5.0;
};

// What one minibatch step computes; algorithms differ here, not in the loop.
// `forward` runs the model on the batch and returns the batch loss, keeping
// whatever `backward` needs; `backward` then leaves the gradients the step
// applies.  `before_epoch` (optional) runs at the start of every epoch,
// before the epoch's shuffle draws from the same rng.
struct BatchObjective {
  std::function<double(const Tensor& x, const std::vector<int>& y)> forward;
  std::function<void()> backward;
  std::function<void(Rng& rng)> before_epoch;
};

// The local-training loop.  Builds an nn::Sgd over `model`'s parameters
// from `options`; per epoch runs `before_epoch`, then shuffled batches of
// `shard`, each as: rewind the thread's scratch arena, ZeroGrad, `forward`,
// `backward`, clip the gradient norm (options.grad_clip > 0), step.
// Returns the mean batch loss of the last epoch.
double TrainLocal(nn::Module& model, const data::Dataset& shard,
                  const LocalTrainOptions& options, Rng& rng,
                  const BatchObjective& objective);

// TrainLocal with softmax cross-entropy on `model`'s output.
double TrainLocal(nn::Module& model, const data::Dataset& shard,
                  const LocalTrainOptions& options, Rng& rng);

// One round's staged client uploads, one slot per participant in BeginRound
// order.  Begin and the reads run serially; concurrent RunClient calls each
// write only their own client's slot, and FinishRound merges the slots in
// slot order, which is what keeps any thread count bit-identical.
template <typename Upload>
class StagedUploads {
 public:
  // Opens the round: one empty slot per participant, in dispatch order.
  void Begin(const std::vector<int>& participants) {
    participants_ = participants;
    uploads_.assign(participants.size(), Upload{});
    slot_of_client_.clear();
    for (std::size_t i = 0; i < participants.size(); ++i) {
      const auto c = static_cast<std::size_t>(participants[i]);
      if (c >= slot_of_client_.size()) slot_of_client_.resize(c + 1, kNone);
      slot_of_client_[c] = i;
    }
  }

  // `client_id`'s slot; throws Error unless it is a participant of the
  // open round.
  Upload& For(int client_id) {
    const auto c = static_cast<std::size_t>(client_id);  // negative wraps high
    MHB_CHECK(c < slot_of_client_.size() && slot_of_client_[c] != kNone)
        << "client" << client_id << "is not a participant of this round";
    return uploads_[slot_of_client_[c]];
  }

  const std::vector<int>& participants() const { return participants_; }
  const std::vector<Upload>& uploads() const { return uploads_; }

  // Closes the round once its uploads are merged.
  void Clear() {
    participants_.clear();
    uploads_.clear();
    slot_of_client_.clear();
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<int> participants_;
  std::vector<Upload> uploads_;
  std::vector<std::size_t> slot_of_client_;  // client id -> slot or kNone
};

}  // namespace mhbench::fl
