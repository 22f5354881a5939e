// Name -> algorithm factory, mirroring the paper's Table II.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fl/engine.h"
#include "models/zoo.h"

namespace mhbench::algorithms {

enum class HeteroLevel { kHomogeneous, kWidth, kDepth, kTopology };

struct AlgorithmInfo {
  std::string name;
  HeteroLevel level;
};

// The eight MHFL algorithms plus the homogeneous FedAvg baseline, in the
// paper's presentation order.
const std::vector<AlgorithmInfo>& AllAlgorithms();

// The paper's ratio ladder for width/depth scaling (100%, 75%, 50%, 25%).
const std::vector<double>& RatioLadder();

struct AlgorithmOptions {
  // FedAvg: model ratio of the homogeneous baseline (the effectiveness
  // baseline uses the minimum client capacity).
  double fedavg_ratio = 1.0;
  std::uint64_t seed = 7;
};

// Creates the named algorithm for a task's model set.  Width/depth
// algorithms use `task_models.primary`; topology algorithms use
// `task_models.topology`.  Throws Error for unknown names.
std::unique_ptr<fl::MhflAlgorithm> MakeAlgorithm(
    const std::string& name, const models::TaskModels& task_models,
    const AlgorithmOptions& options = {});

// Level of a named algorithm (throws for unknown names).
HeteroLevel LevelOf(const std::string& name);

}  // namespace mhbench::algorithms
