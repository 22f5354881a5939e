#include "algorithms/registry.h"

#include "algorithms/depthfl.h"
#include "algorithms/fedavg.h"
#include "algorithms/fedepth.h"
#include "algorithms/fedet.h"
#include "algorithms/fedproto.h"
#include "algorithms/fedrolex.h"
#include "algorithms/fjord.h"
#include "algorithms/inclusivefl.h"
#include "algorithms/sheterofl.h"
#include "core/error.h"

namespace mhbench::algorithms {

const std::vector<AlgorithmInfo>& AllAlgorithms() {
  static const std::vector<AlgorithmInfo> kAll = {
      {"fedavg", HeteroLevel::kHomogeneous},
      {"fjord", HeteroLevel::kWidth},
      {"sheterofl", HeteroLevel::kWidth},
      {"fedrolex", HeteroLevel::kWidth},
      {"fedepth", HeteroLevel::kDepth},
      {"inclusivefl", HeteroLevel::kDepth},
      {"depthfl", HeteroLevel::kDepth},
      {"fedproto", HeteroLevel::kTopology},
      {"fedet", HeteroLevel::kTopology},
  };
  return kAll;
}

const std::vector<double>& RatioLadder() {
  static const std::vector<double> kLadder = {0.25, 0.5, 0.75, 1.0};
  return kLadder;
}

HeteroLevel LevelOf(const std::string& name) {
  for (const auto& info : AllAlgorithms()) {
    if (info.name == name) return info.level;
  }
  throw Error("unknown algorithm: " + name);
}

std::unique_ptr<fl::MhflAlgorithm> MakeAlgorithm(
    const std::string& name, const models::TaskModels& task_models,
    const AlgorithmOptions& options) {
  MHB_CHECK(task_models.primary != nullptr);
  if (name == "fedavg") {
    return std::make_unique<FedAvg>(task_models.primary, options.fedavg_ratio,
                                    options.seed);
  }
  if (name == "fjord") {
    return std::make_unique<Fjord>(task_models.primary, RatioLadder(),
                                   options.seed);
  }
  if (name == "sheterofl") {
    return std::make_unique<SHeteroFl>(task_models.primary, options.seed);
  }
  if (name == "fedrolex") {
    return std::make_unique<FedRolex>(task_models.primary, options.seed);
  }
  if (name == "depthfl") {
    return std::make_unique<DepthFl>(task_models.primary, options.seed);
  }
  if (name == "inclusivefl") {
    return std::make_unique<InclusiveFl>(task_models.primary, options.seed);
  }
  if (name == "fedepth") {
    return std::make_unique<FeDepth>(task_models.primary, options.seed);
  }
  if (name == "fedproto") {
    MHB_CHECK(!task_models.topology.empty());
    return std::make_unique<FedProto>(task_models.topology, options.seed);
  }
  if (name == "fedet") {
    MHB_CHECK(!task_models.topology.empty());
    return std::make_unique<FedEt>(task_models.topology, options.seed);
  }
  throw Error("unknown algorithm: " + name);
}

}  // namespace mhbench::algorithms
