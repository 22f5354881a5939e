// Client training reuses one model per (thread, store, spec)
// (fl::GlobalModel::TrainingModel): a client's upload must not depend on
// what its thread's model trained before, and per-round specs must not
// pile up.
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/depthfl.h"
#include "algorithms/fedavg.h"
#include "algorithms/fedepth.h"
#include "algorithms/fedet.h"
#include "algorithms/fedrolex.h"
#include "algorithms/fjord.h"
#include "algorithms/inclusivefl.h"
#include "algorithms/registry.h"
#include "algorithms/sheterofl.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "fl/server.h"
#include "models/zoo.h"

namespace mhbench::algorithms {
namespace {

// Exposes a set-up algorithm's staged uploads.
template <class Alg>
class UploadProbe : public Alg {
 public:
  using Alg::Alg;
  const fl::ClientUpdate& Upload(int client_id) {
    return this->staged_.For(client_id);
  }
};

struct Probe {
  std::unique_ptr<fl::MhflAlgorithm> alg;
  std::function<const fl::ClientUpdate&(int)> upload;
};

template <class Alg, class... Args>
Probe MakeProbe(Args&&... args) {
  auto alg = std::make_unique<UploadProbe<Alg>>(std::forward<Args>(args)...);
  UploadProbe<Alg>* raw = alg.get();
  return {std::move(alg),
          [raw](int c) -> const fl::ClientUpdate& { return raw->Upload(c); }};
}

// The registry's algorithm `name` with its default options, as a probe;
// FedAvg runs at ratio 0.5, so its model is a slice of the store too.
Probe MakeProbe(const std::string& name, const models::TaskModels& tm) {
  const AlgorithmOptions o;
  if (name == "fedavg") return MakeProbe<FedAvg>(tm.primary, 0.5, o.seed);
  if (name == "fjord") {
    return MakeProbe<Fjord>(tm.primary, RatioLadder(), o.seed);
  }
  if (name == "sheterofl") return MakeProbe<SHeteroFl>(tm.primary, o.seed);
  if (name == "fedrolex") return MakeProbe<FedRolex>(tm.primary, o.seed);
  if (name == "depthfl") {
    return MakeProbe<DepthFl>(tm.primary, o.distill_weight,
                              o.distill_temperature, o.seed);
  }
  if (name == "inclusivefl") {
    return MakeProbe<InclusiveFl>(tm.primary, o.inclusive_momentum, o.seed);
  }
  if (name == "fedepth") return MakeProbe<FeDepth>(tm.primary, o.seed);
  FedEt::Options fo;
  fo.temperature = o.distill_temperature;
  return MakeProbe<FedEt>(tm.topology, fo, o.seed);
}

bool SameUpload(const fl::ClientUpdate& a, const fl::ClientUpdate& b) {
  return a.runs == b.runs && a.weight == b.weight &&
         a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(Scalar)) == 0;
}

// Two instances of `name` see the same two rounds of clients 0, 1, 2,
// whose specs are s1, s2, s1 (capacities 0.5, 1.0, 0.5; Fed-ET groups
// 0, 1, 0).  One trains every client on this thread, so client 2 trains in
// the model client 0 trained; the other runs each client on a new thread,
// whose first checkout is a fresh Build + LoadInto.  Every upload must
// match byte for byte.
void ExpectReusedModelUploadsMatchFreshBuilds(const std::string& name) {
  SCOPED_TRACE(name);
  data::TaskConfig tcfg;
  tcfg.train_samples = 72;
  tcfg.test_samples = 24;
  tcfg.num_clients = 3;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const models::TaskModels tm = models::MakeTaskModels("cifar10");
  auto assignments = fl::UniformCapacityAssignments(3, {0.5, 1.0, 0.5});
  for (int c = 0; c < 3; ++c) {
    assignments[static_cast<std::size_t>(c)].arch_index = c % 2;
  }
  const fl::FlConfig cfg;
  Probe reused = MakeProbe(name, tm);
  Probe fresh = MakeProbe(name, tm);
  fl::FlEngine reused_engine(task, cfg, assignments, *reused.alg);
  fl::FlEngine fresh_engine(task, cfg, assignments, *fresh.alg);
  Rng reused_setup(1), fresh_setup(1);
  reused.alg->Setup(reused_engine.context(), reused_setup);
  fresh.alg->Setup(fresh_engine.context(), fresh_setup);

  const std::vector<int> clients = {0, 1, 2};
  for (int round = 1; round <= 2; ++round) {
    reused.alg->BeginRound(round, clients);
    fresh.alg->BeginRound(round, clients);
    for (int c : clients) {
      const auto stream = static_cast<std::uint64_t>(100 * round + c);
      Rng reused_rng(stream), fresh_rng(stream);
      reused.alg->RunClient(c, round, reused_rng);
      std::thread([&] { fresh.alg->RunClient(c, round, fresh_rng); }).join();
      ASSERT_FALSE(reused.upload(c).empty());
      EXPECT_TRUE(SameUpload(reused.upload(c), fresh.upload(c)))
          << "round " << round << " client " << c;
    }
    Rng reused_merge(round), fresh_merge(round);
    reused.alg->FinishRound(round, reused_merge);
    fresh.alg->FinishRound(round, fresh_merge);
  }
}

TEST(TrainingModelReuseTest, UploadsMatchFreshBuilds) {
  for (const char* name : {"fedavg", "fjord", "sheterofl", "fedrolex",
                           "depthfl", "inclusivefl", "fedepth", "fedet"}) {
    ExpectReusedModelUploadsMatchFreshBuilds(name);
  }
}

// Records, at every round barrier, how many training models the engine
// thread holds.
class CountingFedRolex : public FedRolex {
 public:
  using FedRolex::FedRolex;
  void FinishRound(int round, Rng& rng) override {
    held.push_back(fl::GlobalModel::ThreadTrainingModels());
    FedRolex::FinishRound(round, rng);
  }
  std::vector<std::size_t> held;
};

TEST(TrainingModelReuseTest, FedRolexWindowsDoNotPileUp) {
  // FedRolex's spec carries the round (the window offset), so every round
  // brings one new spec per capacity.  A thread keeps only the specs of
  // the current and the previous store version: at one thread that is at
  // most two rounds' worth, however many rounds run.
  const std::vector<double> capacities = {0.25, 0.5, 0.75, 1.0};
  data::TaskConfig tcfg;
  tcfg.train_samples = 96;
  tcfg.test_samples = 24;
  tcfg.num_clients = 4;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  fl::FlConfig cfg;
  cfg.rounds = 6;
  cfg.sample_fraction = 1.0;
  cfg.eval_every = 6;
  cfg.eval_max_samples = 24;
  cfg.stability_max_samples = 24;
  cfg.num_threads = 1;
  const std::size_t before = fl::GlobalModel::ThreadTrainingModels();
  {
    CountingFedRolex alg(models::MakeTaskModels("cifar10").primary, 7);
    fl::FlEngine engine(task, cfg,
                        fl::UniformCapacityAssignments(4, capacities), alg);
    engine.Run();
    ASSERT_EQ(alg.held.size(), 6u);
    for (std::size_t r = 0; r < alg.held.size(); ++r) {
      EXPECT_LE(alg.held[r] - before, 2 * capacities.size()) << "round " << r;
    }
    EXPECT_EQ(alg.held.front() - before, capacities.size());
  }
  // The algorithm's GlobalModel took this thread's models with it.
  EXPECT_EQ(fl::GlobalModel::ThreadTrainingModels(), before);
}

}  // namespace
}  // namespace mhbench::algorithms
