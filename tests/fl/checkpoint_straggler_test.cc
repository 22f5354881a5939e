// Checkpointing (ParamStore serialization) and the engine's synchronous
// round deadline (straggler dropping).
#include <gtest/gtest.h>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "fl/param_store.h"
#include "models/zoo.h"

namespace mhbench::fl {
namespace {

TEST(CheckpointTest, SerializeRoundTrip) {
  Rng rng(1);
  const auto tm = models::MakeTaskModels("cifar10");
  auto built = tm.primary->Build(models::BuildSpec{}, rng);
  const ParamStore store = ParamStore::FromModule(*built.net);
  const auto bytes = store.Serialize();
  const ParamStore restored = ParamStore::Deserialize(bytes);
  EXPECT_EQ(restored.size(), store.size());
  for (const auto& name : store.Names()) {
    ASSERT_TRUE(restored.Has(name)) << name;
    EXPECT_TRUE(restored.Get(name).AllClose(store.Get(name), 0.0f)) << name;
  }
}

TEST(CheckpointTest, CorruptedBufferThrows) {
  ParamStore store;
  store.Set("w", Tensor({4}));
  auto bytes = store.Serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
  bytes.clear();
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

TEST(CheckpointTest, TrailingGarbageThrows) {
  ParamStore store;
  store.Set("w", Tensor({4}));
  auto bytes = store.Serialize();
  bytes.push_back(0xAB);
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

struct EngineFixture {
  data::Task task;
  models::TaskModels tm;
  std::vector<ClientAssignment> assignments;
  FlConfig cfg;

  EngineFixture() {
    data::TaskConfig tcfg;
    tcfg.train_samples = 160;
    tcfg.test_samples = 80;
    tcfg.num_clients = 4;
    task = data::MakeTask("cifar10", tcfg);
    tm = models::MakeTaskModels("cifar10");
    assignments = UniformCapacityAssignments(4, {1.0});
    cfg.rounds = 4;
    cfg.sample_fraction = 1.0;
    cfg.eval_every = 4;
    cfg.eval_max_samples = 80;
    cfg.stability_max_samples = 20;
  }
};

TEST(StragglerTest, SlowClientsAreDropped) {
  EngineFixture f;
  // Clients 0/1 fast, clients 2/3 slow.
  f.assignments[0].system.compute_time_s = 10;
  f.assignments[1].system.compute_time_s = 10;
  f.assignments[2].system.compute_time_s = 100;
  f.assignments[3].system.compute_time_s = 100;
  f.cfg.round_deadline_s = 50;
  auto alg = algorithms::MakeAlgorithm("fedavg", f.tm);
  FlEngine engine(f.task, f.cfg, f.assignments, *alg);
  const RunResult r = engine.Run();
  EXPECT_EQ(r.total_participations, 16);  // 4 clients x 4 rounds
  EXPECT_EQ(r.straggler_drops, 8);        // the two slow clients each round
  // The server waits out the deadline each round.
  EXPECT_DOUBLE_EQ(r.total_sim_time_s, 4 * 50.0);
}

TEST(StragglerTest, NoDeadlineNoDrops) {
  EngineFixture f;
  f.assignments[0].system.compute_time_s = 1000;
  auto alg = algorithms::MakeAlgorithm("fedavg", f.tm);
  FlEngine engine(f.task, f.cfg, f.assignments, *alg);
  const RunResult r = engine.Run();
  EXPECT_EQ(r.straggler_drops, 0);
}

TEST(StragglerTest, AllDroppedStillRuns) {
  EngineFixture f;
  for (auto& a : f.assignments) a.system.compute_time_s = 100;
  f.cfg.round_deadline_s = 1.0;
  auto alg = algorithms::MakeAlgorithm("sheterofl", f.tm);
  FlEngine engine(f.task, f.cfg, f.assignments, *alg);
  const RunResult r = engine.Run();  // no client ever contributes
  EXPECT_EQ(r.straggler_drops, r.total_participations);
  EXPECT_GE(r.final_accuracy, 0.0);  // evaluates the untouched init model
}

}  // namespace
}  // namespace mhbench::fl
