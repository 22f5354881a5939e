// Client-side types: per-client assignments (model capacity + system costs)
// and the shared local-training routine.
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "nn/optimizer.h"

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

struct LocalTrainOptions {
  nn::OptimizerKind optimizer = nn::OptimizerKind::kSgd;
  int epochs = 1;
  int batch_size = 16;
  double lr = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  double grad_clip = 5.0;
};

// Runs standard supervised local training; returns the mean training loss
// of the last epoch.
double TrainLocal(nn::Module& model, const data::Dataset& shard,
                  const LocalTrainOptions& options, Rng& rng);

}  // namespace mhbench::fl
