// Mechanism-level tests of the individual MHFL algorithms (beyond the
// end-to-end learning checks in algorithms_test.cc).
#include <bit>
#include <cstdint>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "algorithms/depthfl.h"
#include "algorithms/fedavg.h"
#include "algorithms/fedrolex.h"
#include "algorithms/fjord.h"
#include "algorithms/inclusivefl.h"
#include "algorithms/registry.h"
#include "algorithms/sheterofl.h"
#include "core/error.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"

namespace mhbench::algorithms {
namespace {

struct Harness {
  data::Task task;
  models::TaskModels tm;
  std::vector<fl::ClientAssignment> assignments;
  fl::FlConfig cfg;

  explicit Harness(const std::string& task_name = "cifar10",
                   std::vector<double> ladder = {0.25, 0.5, 0.75, 1.0}) {
    data::TaskConfig tcfg;
    tcfg.train_samples = 160;
    tcfg.test_samples = 80;
    tcfg.num_clients = 4;
    task = data::MakeTask(task_name, tcfg);
    tm = models::MakeTaskModels(task_name);
    assignments = fl::UniformCapacityAssignments(4, ladder);
    cfg.rounds = 3;
    cfg.sample_fraction = 1.0;
    cfg.eval_every = 3;
    cfg.eval_max_samples = 80;
    cfg.stability_max_samples = 40;
  }
};

// Collects the global store of a weight-sharing algorithm after a run.
fl::RunResult RunAlgo(Harness& h, fl::MhflAlgorithm& alg) {
  fl::FlEngine engine(h.task, h.cfg, h.assignments, alg);
  return engine.Run();
}

// RunClient for a client outside BeginRound's participants must throw
// rather than overwrite another participant's staged upload (or write past
// the end of an empty round's slots).
void ExpectRunClientRejectsNonParticipants(const std::string& name) {
  Harness h;
  const auto alg = MakeAlgorithm(name, h.tm);
  fl::FlEngine engine(h.task, h.cfg, h.assignments, *alg);
  Rng rng(1);
  alg->Setup(engine.context(), rng);
  alg->BeginRound(1, {2});
  ASSERT_THROW(alg->RunClient(0, 1, rng), Error);
  alg->BeginRound(2, {});
  EXPECT_THROW(alg->RunClient(2, 2, rng), Error);
}

TEST(ParticipantSlotTest, WeightSharingRejectsNonParticipants) {
  ExpectRunClientRejectsNonParticipants("sheterofl");
}

TEST(ParticipantSlotTest, FedEtRejectsNonParticipants) {
  ExpectRunClientRejectsNonParticipants("fedet");
}

TEST(ParticipantSlotTest, FedProtoRejectsNonParticipants) {
  ExpectRunClientRejectsNonParticipants("fedproto");
}

TEST(FedAvgMechanicsTest, SmallRatioIgnoresCapacities) {
  // FedAvg at a fixed ratio gives every client the same model regardless of
  // its capacity, and evaluates that same model globally.
  Harness h;
  FedAvg alg(h.tm.primary, 0.25, 7);
  const fl::RunResult r = RunAlgo(h, alg);
  // Every client's personalized accuracy equals every other's: identical
  // models, identical logits.
  for (double a : r.client_accuracies) {
    EXPECT_DOUBLE_EQ(a, r.client_accuracies.front());
  }
}

// SHeteroFL that keeps a copy of its global store as Setup initialized it.
class StoreProbeSHeteroFl : public SHeteroFl {
 public:
  using SHeteroFl::SHeteroFl;
  void Setup(const fl::FlContext& ctx, Rng& rng) override {
    SHeteroFl::Setup(ctx, rng);
    initial = global_->store();
  }
  const fl::ParamStore& store() const { return global_->store(); }

  fl::ParamStore initial;
};

// Coordinates of each store tensor that moved from `initial` to `final`,
// split by whether `mapping` (a sub-model's slices) covers them.  A store
// tensor the mapping does not name is outer in full.
struct MovedCoordinates {
  std::size_t inner = 0, outer = 0;
};
MovedCoordinates CountMoved(const fl::ParamStore& initial,
                            const fl::ParamStore& final,
                            const models::ParamMapping& mapping) {
  MovedCoordinates moved;
  for (const std::string& name : final.Names()) {
    const Tensor& before = initial.Get(name);
    const Tensor& after = final.Get(name);
    // keep[d][i]: index i of dim d is inside the sub-model.
    std::vector<std::vector<bool>> keep;
    for (int d = 0; d < after.ndim(); ++d) {
      keep.emplace_back(static_cast<std::size_t>(after.dim(d)), false);
    }
    for (const auto& slice : mapping) {
      if (slice.name != name) continue;
      for (std::size_t d = 0; d < keep.size(); ++d) {
        if (!slice.index[d].has_value()) {
          keep[d].assign(keep[d].size(), true);
          continue;
        }
        for (int i : *slice.index[d]) {
          keep[d][static_cast<std::size_t>(i)] = true;
        }
      }
    }
    for (std::size_t e = 0; e < after.numel(); ++e) {
      bool inner = !keep.empty();
      std::size_t rest = e;
      for (std::size_t d = keep.size(); d-- > 0;) {
        inner = inner && keep[d][rest % keep[d].size()];
        rest /= keep[d].size();
      }
      if (std::bit_cast<std::uint32_t>(before[e]) !=
          std::bit_cast<std::uint32_t>(after[e])) {
        ++(inner ? moved.inner : moved.outer);
      }
    }
  }
  return moved;
}

TEST(SHeteroFlMechanicsTest, UntrainedOuterCoordinatesStayAtInit) {
  // With every capacity at x0.5, aggregation averages only the coordinates
  // of the x0.5 prefix sub-model: every other store coordinate keeps its
  // initial bits, while the prefix trains.
  Harness h("cifar10", {0.5});
  StoreProbeSHeteroFl alg(h.tm.primary, 7);
  RunAlgo(h, alg);
  models::BuildSpec half;
  half.width_ratio = 0.5;
  Rng build_rng(1);
  const models::BuiltModel prefix = h.tm.primary->Build(half, build_rng);
  ASSERT_EQ(alg.initial.Names(), alg.store().Names());

  const MovedCoordinates moved =
      CountMoved(alg.initial, alg.store(), prefix.mapping);
  EXPECT_EQ(moved.outer, 0u);
  EXPECT_GT(moved.inner, 0u);

  // The check sees a single aggregated outer coordinate: plant one in the
  // last channel of the first tensor the prefix slices.
  fl::ParamStore planted = alg.store();
  const models::ParamSlice* sliced = nullptr;
  for (const auto& slice : prefix.mapping) {
    if (!slice.index.empty() && slice.index[0].has_value()) {
      sliced = &slice;
      break;
    }
  }
  ASSERT_NE(sliced, nullptr);
  Tensor& t = planted.GetMutable(sliced->name);
  t[t.numel() - 1] += 1.0f;
  EXPECT_EQ(CountMoved(alg.initial, planted, prefix.mapping).outer, 1u);
}

TEST(SHeteroFlMechanicsTest, CappedLadderCapsGlobalEval) {
  // Two runs with different max capacities must produce different global
  // accuracy dynamics (the served model differs in width).
  Harness small("cifar10", {0.25});
  Harness large("cifar10", {0.25, 1.0});
  SHeteroFl a(small.tm.primary, 7), b(large.tm.primary, 7);
  const double acc_small = RunAlgo(small, a).final_accuracy;
  const double acc_large = RunAlgo(large, b).final_accuracy;
  // Not asserting an ordering after only 3 rounds; just that both ran and
  // are valid probabilities.
  EXPECT_GE(acc_small, 0.0);
  EXPECT_LE(acc_small, 1.0);
  EXPECT_GE(acc_large, 0.0);
  EXPECT_LE(acc_large, 1.0);
}

TEST(DepthFlMechanicsTest, EnsembleLogitsShape) {
  Harness h;
  DepthFl alg(h.tm.primary, 7);
  fl::FlEngine engine(h.task, h.cfg, h.assignments, alg);
  engine.Run();
  Rng rng(1);
  const Tensor x = Tensor::Randn({3, 3, 8, 8}, rng);
  const Tensor logits = alg.GlobalLogits(x);
  EXPECT_EQ(logits.shape(), Shape({3, 10}));
}

TEST(DepthFlMechanicsTest, SelfDistillationLearns) {
  Harness h;
  h.cfg.rounds = 8;
  DepthFl alg(h.tm.primary, 7);
  const fl::RunResult r = RunAlgo(h, alg);
  EXPECT_GT(r.final_accuracy, 0.15);
}

TEST(FjordMechanicsTest, LadderValidation) {
  const auto tm = models::MakeTaskModels("cifar10");
  EXPECT_THROW(Fjord(tm.primary, {}, 7), Error);
  EXPECT_THROW(Fjord(tm.primary, {0.5, 0.25}, 7), Error);     // not sorted
  EXPECT_THROW(Fjord(tm.primary, {0.0, 0.5}, 7), Error);      // zero ratio
  EXPECT_THROW(Fjord(tm.primary, {0.5, 1.5}, 7), Error);      // above 1
  EXPECT_NO_THROW(Fjord(tm.primary, {0.25, 0.5, 1.0}, 7));
}

// InclusiveFl without its momentum transfer.
class NoTransferInclusiveFl : public InclusiveFl {
 public:
  using InclusiveFl::InclusiveFl;

 protected:
  void PostAggregate(int /*round*/, Rng& /*rng*/) override {}
};

// Each client trains the block prefix of its capacity; no server hook.
class PlainDepthPrefix : public WeightSharingAlgorithm {
 public:
  using WeightSharingAlgorithm::WeightSharingAlgorithm;
  std::string name() const override { return "plain-depth-prefix"; }

 protected:
  models::BuildSpec ClientSpec(int client_id, int /*round*/,
                               Rng& /*rng*/) override {
    models::BuildSpec spec;
    spec.depth_ratio = ClientCapacity(client_id);
    return spec;
  }
  models::BuildSpec GlobalEvalSpec() override {
    models::BuildSpec spec;
    spec.depth_ratio = MaxCapacity();
    return spec;
  }
};

TEST(InclusiveFlMechanicsTest, NoTransferMatchesPlainDepthPrefix) {
  // Without the post-aggregation transfer InclusiveFl is a plain
  // depth-prefix algorithm: its pre-round snapshot must not perturb
  // anything.
  Harness h;
  NoTransferInclusiveFl a(h.tm.primary, 7);
  PlainDepthPrefix b(h.tm.primary, 7);
  const fl::RunResult ra = RunAlgo(h, a);
  const fl::RunResult rb = RunAlgo(h, b);
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.client_accuracies, rb.client_accuracies);
}

TEST(InclusiveFlMechanicsTest, TransferChangesOutcome) {
  Harness h;
  h.cfg.rounds = 4;
  NoTransferInclusiveFl a(h.tm.primary, 7);
  InclusiveFl b(h.tm.primary, 7);
  const double r_off = RunAlgo(h, a).final_accuracy;
  const double r_on = RunAlgo(h, b).final_accuracy;
  // The transfer must actually do something (values will differ).
  EXPECT_NE(r_off, r_on);
}

TEST(FedRolexMechanicsTest, FullModelServedDespiteSmallClients) {
  // All clients at 0.5: FedRolex still evaluates the full model (its
  // rolling window trains every coordinate over time).
  Harness h("cifar10", {0.5});
  h.cfg.rounds = 6;
  FedRolex alg(h.tm.primary, 7);
  const fl::RunResult r = RunAlgo(h, alg);
  EXPECT_GT(r.final_accuracy, 0.1);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(Scalar)) == 0;
}

TEST(WeightSharingEvalTest, EqualEvalSpecsGetEqualLogits) {
  // Clients 0 and 2 (x0.5) and 1 and 3 (x1.0) share a capacity, so their
  // EvalSpecs are equal under every weight-sharing method.
  Harness h("cifar10", {0.5, 1.0});
  Rng xr(3);
  const Tensor x = Tensor::Randn({5, 3, 8, 8}, xr);
  for (const std::string name : {"fedavg", "fjord", "sheterofl", "fedrolex",
                                  "depthfl", "inclusivefl", "fedepth"}) {
    const auto alg = MakeAlgorithm(name, h.tm);
    fl::FlEngine engine(h.task, h.cfg, h.assignments, *alg);
    engine.Run();
    EXPECT_TRUE(SameBytes(alg->ClientLogits(0, x), alg->ClientLogits(2, x)))
        << name;
    EXPECT_TRUE(SameBytes(alg->ClientLogits(1, x), alg->ClientLogits(3, x)))
        << name;
  }
}

TEST(WeightSharingEvalTest, SHeteroFlGlobalEvalIsTheMaxCapacityClientModel) {
  Harness h("cifar10", {0.5, 1.0});
  SHeteroFl alg(h.tm.primary, 7);
  fl::FlEngine engine(h.task, h.cfg, h.assignments, alg);
  engine.Run();
  Rng xr(4);
  const Tensor x = Tensor::Randn({5, 3, 8, 8}, xr);
  EXPECT_TRUE(SameBytes(alg.GlobalLogits(x), alg.ClientLogits(1, x)));
  EXPECT_FALSE(SameBytes(alg.GlobalLogits(x), alg.ClientLogits(0, x)));
}

TEST(AblationHooksTest, SbnOffChangesEvaluation) {
  Harness h;
  h.cfg.rounds = 4;
  SHeteroFl a(h.tm.primary, 7), b(h.tm.primary, 7);
  b.set_sbn_eval(false);
  const double with_sbn = RunAlgo(h, a).final_accuracy;
  const double without = RunAlgo(h, b).final_accuracy;
  EXPECT_NE(with_sbn, without);
}

TEST(AblationHooksTest, UniformWeightingChangesOutcomeOnSkewedShards) {
  Harness h;
  h.cfg.partition = fl::PartitionKind::kDirichlet;
  h.cfg.dirichlet_alpha = 0.3;  // skewed shard sizes
  h.cfg.rounds = 4;
  SHeteroFl a(h.tm.primary, 7), b(h.tm.primary, 7);
  b.set_aggregation_weighting(
      WeightSharingAlgorithm::AggregationWeighting::kUniform);
  const double weighted = RunAlgo(h, a).final_accuracy;
  const double uniform = RunAlgo(h, b).final_accuracy;
  EXPECT_NE(weighted, uniform);
}

TEST(TopologyMechanicsTest, FedProtoCommitteeCoversArchitectures) {
  Harness h;
  for (std::size_t i = 0; i < h.assignments.size(); ++i) {
    h.assignments[i].arch_index = static_cast<int>(i);
  }
  auto alg = MakeAlgorithm("fedproto", h.tm);
  const fl::RunResult r = RunAlgo(h, *alg);
  EXPECT_EQ(r.client_accuracies.size(), 4u);
}

TEST(TopologyMechanicsTest, FedEtServerIsLargestFamily) {
  Harness h;
  auto alg = MakeAlgorithm("fedet", h.tm);
  fl::FlEngine engine(h.task, h.cfg, h.assignments, *alg);
  engine.Run();
  Rng rng(1);
  const Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(alg->GlobalLogits(x).shape(), Shape({2, 10}));
}

}  // namespace
}  // namespace mhbench::algorithms
