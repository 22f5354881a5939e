#include "fl/engine.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "models/zoo.h"
#include "obs/registry.h"

namespace mhbench::fl {
namespace {

data::Task SmallTask(const std::string& name = "cifar10") {
  data::TaskConfig cfg;
  cfg.train_samples = 240;
  cfg.test_samples = 120;
  cfg.num_clients = 6;
  return data::MakeTask(name, cfg);
}

FlConfig FastConfig(int rounds = 10) {
  FlConfig cfg;
  cfg.rounds = rounds;
  cfg.sample_fraction = 0.5;
  cfg.eval_every = rounds;  // evaluate once at the end
  cfg.eval_max_samples = 120;
  cfg.stability_max_samples = 60;
  return cfg;
}

TEST(FlEngineTest, FedAvgLearnsAboveChance) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlEngine engine(task, FastConfig(12), {}, *alg);
  const RunResult result = engine.Run();
  // 10 classes -> chance 0.1.
  EXPECT_GT(result.final_accuracy, 0.3);
  EXPECT_EQ(static_cast<int>(result.client_accuracies.size()), 6);
}

TEST(FlEngineTest, DeterministicAcrossRuns) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto run_once = [&]() {
    auto alg = algorithms::MakeAlgorithm("sheterofl", tm);
    std::vector<ClientAssignment> assign =
        UniformCapacityAssignments(6, {0.25, 0.5, 1.0});
    FlEngine engine(task, FastConfig(4), assign, *alg);
    return engine.Run().final_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(FlEngineTest, SimulatedClockAdvancesByMaxClientTime) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  std::vector<ClientAssignment> assign(6);
  for (auto& a : assign) {
    a.system.compute_time_s = 10.0;
    a.system.comm_time_s = 5.0;
  }
  FlConfig cfg = FastConfig(3);
  cfg.sample_fraction = 0.5;
  FlEngine engine(task, cfg, assign, *alg);
  const RunResult result = engine.Run();
  EXPECT_DOUBLE_EQ(result.total_sim_time_s, 3 * 15.0);
}

TEST(FlEngineTest, TimeToAccuracyInfWhenNeverReached) {
  RunResult r;
  r.curve = {{0, 10.0, 0.2}, {1, 20.0, 0.5}};
  EXPECT_DOUBLE_EQ(r.TimeToAccuracy(0.4), 20.0);
  EXPECT_DOUBLE_EQ(r.TimeToAccuracy(0.1), 10.0);
  EXPECT_TRUE(std::isinf(r.TimeToAccuracy(0.9)));
}

TEST(FlEngineTest, StabilityVarianceMath) {
  RunResult r;
  r.client_accuracies = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(r.StabilityVariance(), 0.0);
  r.client_accuracies = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(r.StabilityVariance(), 0.25);
  EXPECT_DOUBLE_EQ(r.MeanClientAccuracy(), 0.5);
}

TEST(FlEngineTest, NaturalTaskUsesUserPartition) {
  data::TaskConfig cfg;
  cfg.train_samples = 300;
  cfg.test_samples = 100;
  cfg.num_clients = 8;
  const data::Task task = data::MakeTask("ucihar", cfg);
  EXPECT_TRUE(task.natural);
  const auto tm = models::MakeTaskModels("ucihar");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlEngine engine(task, FastConfig(3), {}, *alg);
  // Clients == users with data (some users may have no samples).
  EXPECT_LE(engine.context().num_clients(), 8);
  EXPECT_GT(engine.context().num_clients(), 0);
  const RunResult result = engine.Run();
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(FlEngineTest, DirichletPartitionRuns) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlConfig cfg = FastConfig(3);
  cfg.partition = PartitionKind::kDirichlet;
  cfg.dirichlet_alpha = 0.5;
  FlEngine engine(task, cfg, {}, *alg);
  EXPECT_GE(engine.Run().final_accuracy, 0.0);
}

TEST(FlEngineTest, AssignmentCountMismatchThrows) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  std::vector<ClientAssignment> assign(2);  // 6 clients expected
  EXPECT_THROW(FlEngine(task, FastConfig(2), assign, *alg), Error);
}

TEST(FlEngineTest, NonPositiveEvalEveryIsRejected) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlConfig cfg = FastConfig(1);
  for (const int every : {0, -2}) {
    cfg.eval_every = every;
    EXPECT_THROW(FlEngine(task, cfg, {}, *alg), Error) << every;
  }
}

// Tiers are declared from the whole assignment table at Run entry, so a
// tier none of whose clients is ever sampled still exports its twins, at
// zero.
TEST(FlEngineTest, UnsampledTierStillExportsZeroTwins) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  FlConfig cfg = FastConfig(1);
  auto sampled_clients = [&](const std::vector<ClientAssignment>& assign,
                             obs::Registry& reg) {
    std::set<int> sampled;
    reg.SetClientRowSink([&](std::vector<obs::Registry::ClientRow>&& rows) {
      for (const auto& row : rows) sampled.insert(row.client);
    });
    cfg.obs.registry = &reg;
    auto alg = algorithms::MakeAlgorithm("fedavg", tm);
    FlEngine(task, cfg, assign, *alg).Run();
    reg.SetClientRowSink(nullptr);
    return sampled;
  };
  std::vector<ClientAssignment> assign(6);
  for (auto& a : assign) a.system.device_tier = "cpu";
  obs::Registry probe;
  const std::set<int> sampled = sampled_clients(assign, probe);
  ASSERT_LT(sampled.size(), assign.size());
  int lonely = 0;
  while (sampled.count(lonely) != 0) ++lonely;
  assign[static_cast<std::size_t>(lonely)].system.device_tier = "mem16g";

  obs::Registry reg;
  // Sampling does not depend on tiers: the same clients are drawn.
  EXPECT_EQ(sampled_clients(assign, reg), sampled);
  const auto totals = reg.Totals();
  for (const char* name :
       {"clients_selected@mem16g", "clients_offline@mem16g",
        "clients_dropped@mem16g", "clients_trained@mem16g", "bytes_up@mem16g",
        "bytes_down@mem16g", "train_mflops@mem16g"}) {
    ASSERT_EQ(totals.count(name), 1u) << name;
    EXPECT_EQ(totals.at(name), 0) << name;
  }
  const auto hists = reg.Histograms();
  for (const char* name : {"client_wall_us@mem16g", "client_bytes_up@mem16g",
                           "client_train_mflops@mem16g"}) {
    ASSERT_EQ(hists.count(name), 1u) << name;
    EXPECT_TRUE(hists.at(name).empty()) << name;
  }
  EXPECT_EQ(totals.at("clients_selected@cpu"),
            static_cast<std::int64_t>(sampled.size()));
  EXPECT_EQ(totals.at("clients_selected"),
            static_cast<std::int64_t>(sampled.size()));
}

TEST(UniformCapacityTest, CyclesCapacities) {
  const auto a = UniformCapacityAssignments(5, {0.25, 1.0});
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[0].capacity, 0.25);
  EXPECT_DOUBLE_EQ(a[1].capacity, 1.0);
  EXPECT_DOUBLE_EQ(a[4].capacity, 0.25);
}

}  // namespace
}  // namespace mhbench::fl
