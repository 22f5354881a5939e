#include "fl/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "algorithms/sheterofl.h"
#include "core/mutex.h"
#include "core/rng.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"

namespace mhbench::fl {
namespace {

using models::BuildSpec;
using models::BuiltModel;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(Scalar)) == 0;
}

// Every head's logits, exit order.
std::vector<Tensor> HeadLogits(const BuiltModel& m, const Tensor& x,
                               nn::NormStats stats) {
  return m.trunk().InferHeads(x, stats).logits;
}

bool SameHeads(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t h = 0; h < a.size(); ++h) {
    if (!SameBytes(a[h], b[h])) return false;
  }
  return true;
}

Tensor MakeInput(const models::ModelFamily& fam, int batch, Rng& rng) {
  Shape shape = fam.sample_shape();
  shape.insert(shape.begin(), batch);
  if (shape.size() == 2) {  // token ids
    Tensor ids(shape);
    for (auto& v : ids.data()) v = static_cast<Scalar>(rng.UniformInt(16));
    return ids;
  }
  return Tensor::Randn(shape, rng, 1.0f);
}

// A fresh build of `spec` with its own seed, loaded from `gm`'s store.
BuiltModel FreshModel(const GlobalModel& gm, const BuildSpec& spec,
                      std::uint64_t seed) {
  Rng rng(seed);
  BuiltModel m = gm.family().Build(spec, rng);
  gm.store().LoadInto(*m.net, m.mapping);
  return m;
}

// Moves every store value, running statistics included, off its init.
void PerturbStore(ParamStore& store, Rng& rng) {
  for (const std::string& name : store.Names()) {
    for (auto& v : store.GetMutable(name).data()) {
      v = name.find("running_") != std::string::npos
              ? 0.5f + static_cast<Scalar>(rng.Uniform())
              : v * 0.5f + 0.01f;
    }
  }
}

BuildSpec Width(double r) {
  BuildSpec spec;
  spec.width_ratio = r;
  return spec;
}

BuildSpec Depth(double r) {
  BuildSpec spec;
  spec.depth_ratio = r;
  return spec;
}

TEST(GlobalModelTest, SeedsStoreFromFullMultiHeadModel) {
  Rng rng(1);
  const auto tm = models::MakeTaskModels("cifar100");
  GlobalModel gm(tm.primary, rng);
  // Store must contain every head any depth client would reference.
  const int total = tm.primary->total_blocks();
  for (int b = 0; b < total; ++b) {
    EXPECT_TRUE(gm.store().Has("head" + std::to_string(b) + "/1/weight")) << b;
  }
}

TEST(GlobalModelTest, LogitsShapeAndDeterminism) {
  Rng rng(2);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  Rng xr(3);
  const Tensor x = Tensor::Randn({4, 3, 8, 8}, xr);
  const Tensor a = gm.Logits(x);
  const Tensor b = gm.Logits(x);
  EXPECT_EQ(a.shape(), Shape({4, 10}));
  EXPECT_TRUE(a.AllClose(b));
}

TEST(GlobalModelTest, StoreEditsReachModelsAfterStoreChanged) {
  Rng rng(4);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  Rng xr(5);
  const Tensor x = Tensor::Randn({3, 3, 8, 8}, xr);
  BuildSpec rolling = Width(0.5);
  rolling.rolling = true;
  rolling.width_offset = 3;
  BuildSpec heads = Depth(0.75);
  heads.multi_head = true;
  BuildSpec full;
  full.multi_head = true;  // the construction model, behind Logits()
  const std::vector<BuildSpec> specs = {Width(0.5), rolling, Depth(0.5),
                                        heads, full};
  std::vector<std::vector<Tensor>> before;
  for (const BuildSpec& spec : specs) {
    before.push_back(HeadLogits(gm.Model(spec), x, nn::NormStats::kRunning));
  }
  const Tensor logits_before = gm.Logits(x);

  PerturbStore(gm.store(), rng);
  // Models keep the weights they were loaded with: the edit is invisible...
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameHeads(
        HeadLogits(gm.Model(specs[i]), x, nn::NormStats::kRunning),
        before[i]))
        << i;
  }
  EXPECT_TRUE(SameBytes(gm.Logits(x), logits_before));

  // ...until StoreChanged: then each reads as a fresh build of the store.
  gm.StoreChanged();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto after =
        HeadLogits(gm.Model(specs[i]), x, nn::NormStats::kRunning);
    EXPECT_FALSE(SameHeads(after, before[i])) << i;
    EXPECT_TRUE(SameHeads(after, HeadLogits(FreshModel(gm, specs[i], 9), x,
                                            nn::NormStats::kRunning)))
        << i;
  }
  EXPECT_TRUE(SameBytes(
      gm.Logits(x), FreshModel(gm, full, 9).net->Infer(
                        x, nn::NormStats::kRunning)));
}

TEST(GlobalModelTest, BuildSeedNeverReachesALoadedModel) {
  // The cache keys a model by its spec alone.  That is sound only if no
  // byte of the build seed's init survives LoadInto: every parameter and
  // running statistic is overwritten from the store.
  for (const std::string& task : models::AllTaskNames()) {
    const auto tm = models::MakeTaskModels(task);
    Rng rng(6);
    GlobalModel gm(tm.primary, rng);
    PerturbStore(gm.store(), rng);
    gm.StoreChanged();
    const Tensor x = MakeInput(*tm.primary, 3, rng);
    for (double r : {0.25, 0.5, 0.75, 1.0}) {
      for (const BuildSpec& spec : {Width(r), Depth(r)}) {
        const BuiltModel a = FreshModel(gm, spec, 1);
        const BuiltModel b = FreshModel(gm, spec, 2);
        const BuiltModel& cached = gm.Model(spec);
        for (nn::NormStats stats :
             {nn::NormStats::kBatch, nn::NormStats::kRunning}) {
          const Tensor ya = a.net->Infer(x, stats);
          EXPECT_TRUE(SameBytes(ya, b.net->Infer(x, stats)))
              << task << " width " << spec.width_ratio << " depth "
              << spec.depth_ratio;
          EXPECT_TRUE(SameBytes(ya, cached.net->Infer(x, stats)))
              << task << " width " << spec.width_ratio << " depth "
              << spec.depth_ratio;
        }
      }
    }
  }
}

// Counts every model the engine and the algorithm build.
class CountingFamily : public models::ModelFamily {
 public:
  explicit CountingFamily(models::FamilyPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int num_classes() const override { return inner_->num_classes(); }
  Shape sample_shape() const override { return inner_->sample_shape(); }
  int total_blocks() const override { return inner_->total_blocks(); }
  BuiltModel Build(const BuildSpec& spec, Rng& init_rng) const override {
    builds.fetch_add(1);
    return inner_->Build(spec, init_rng);
  }

  mutable std::atomic<int> builds{0};

 private:
  models::FamilyPtr inner_;
};

// SHeteroFL that counts its trained clients and their distinct specs (a
// SHeteroFL spec is the client's capacity).
class CountingSHeteroFl : public algorithms::SHeteroFl {
 public:
  using SHeteroFl::SHeteroFl;
  void RunClient(int client_id, int round, Rng& rng) override {
    trained.fetch_add(1);
    {
      core::MutexLock lock(mu_);
      capacities_.insert(ClientCapacity(client_id));
    }
    SHeteroFl::RunClient(client_id, round, rng);
  }
  int distinct_specs() {
    core::MutexLock lock(mu_);
    return static_cast<int>(capacities_.size());
  }
  std::atomic<int> trained{0};

 private:
  core::Mutex mu_;
  std::set<double> capacities_ MHB_GUARDED_BY(mu_);
};

TEST(GlobalModelTest, OneModelPerSpecAcrossTheStabilityEval) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 80;
  tcfg.num_clients = 12;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    auto family = std::make_shared<CountingFamily>(
        models::MakeTaskModels("cifar10").primary);
    FlConfig cfg;
    cfg.rounds = 3;
    cfg.sample_fraction = 1.0;
    cfg.eval_every = 1;
    cfg.eval_max_samples = 80;
    cfg.stability_max_samples = 80;
    cfg.num_threads = threads;
    CountingSHeteroFl alg(family, 7);
    FlEngine engine(task, cfg,
                    UniformCapacityAssignments(12, {0.25, 0.5, 1.0}), alg);
    const RunResult result = engine.Run();
    ASSERT_EQ(result.client_accuracies.size(), 12u);
    ASSERT_EQ(alg.trained.load(), 36);
    const int specs = alg.distinct_specs();
    ASSERT_EQ(specs, 3);
    // One full model at construction, one eval model per capacity (the
    // global eval, width 1.0, shares the 1.0 clients' model, and every
    // per-round global eval and every test batch of the stability eval
    // reuses its key's model), and one training model per spec per
    // thread, not one per trained client.  At one thread every round
    // trains every spec, so each is built once.  At two, a thread rebuilds
    // a spec only after a round in which it trained none of its clients,
    // so at most every other round.
    const int evals = 3;
    if (threads == 1) {
      EXPECT_EQ(family->builds.load(), 1 + specs + evals);
    } else {
      EXPECT_LE(family->builds.load(),
                1 + threads * specs * ((cfg.rounds + 1) / 2) + evals);
    }
  }
}

TEST(GlobalModelTest, TrainingModelIsReusedAndReloadedOnEveryCheckout) {
  Rng rng(10);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  PerturbStore(gm.store(), rng);
  gm.StoreChanged();
  const Tensor x = MakeInput(*tm.primary, 3, rng);
  for (const BuildSpec& spec : {Width(0.5), Depth(0.5)}) {
    BuiltModel& first = gm.TrainingModel(spec);
    // Training moves every parameter; the next checkout loads the store
    // back into the same model.
    std::vector<nn::NamedParam> params;
    first.net->CollectParams("", params);
    for (auto& p : params) p.param->value.Scale(0.5f);
    BuiltModel& again = gm.TrainingModel(spec);
    EXPECT_EQ(&again, &first);
    EXPECT_TRUE(SameBytes(again.net->Infer(x, nn::NormStats::kRunning),
                          FreshModel(gm, spec, 11).net->Infer(
                              x, nn::NormStats::kRunning)));
  }
}

TEST(GlobalModelTest, IdleTrainingModelsParkTheirTensors) {
  Rng rng(13);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  PerturbStore(gm.store(), rng);
  gm.StoreChanged();
  const Tensor x = MakeInput(*tm.primary, 3, rng);
  auto params_of = [](BuiltModel& m) {
    std::vector<nn::NamedParam> params;
    m.net->CollectParams("", params);
    return params;
  };
  BuiltModel& narrow = gm.TrainingModel(Width(0.5));
  const std::size_t num_params = params_of(narrow).size();
  for (auto& p : params_of(narrow)) p.param->grad.Fill(1.0f);
  // Checking out another spec parks the narrow model: its values and
  // gradients go back to the thread's pool.
  gm.TrainingModel(Width(1.0));
  for (auto& p : params_of(narrow)) {
    EXPECT_TRUE(p.param->value.empty()) << p.name;
    EXPECT_TRUE(p.param->grad.empty()) << p.name;
  }
  // Its next checkout restores it as a fresh build + LoadInto would be:
  // every parameter (optional biases included) loaded, gradients zeroed.
  EXPECT_EQ(&gm.TrainingModel(Width(0.5)), &narrow);
  ASSERT_EQ(params_of(narrow).size(), num_params);
  for (auto& p : params_of(narrow)) {
    EXPECT_TRUE(SameBytes(p.param->grad, Tensor(p.param->value.shape())))
        << p.name;
  }
  EXPECT_TRUE(SameBytes(
      narrow.net->Infer(x, nn::NormStats::kRunning),
      FreshModel(gm, Width(0.5), 11).net->Infer(x, nn::NormStats::kRunning)));
}

TEST(GlobalModelTest, ThreadDropsTrainingModelsOfStaleSpecs) {
  Rng rng(12);
  const auto tm = models::MakeTaskModels("cifar10");
  const std::size_t before = GlobalModel::ThreadTrainingModels();
  {
    GlobalModel gm(tm.primary, rng);
    gm.TrainingModel(Width(0.25));
    gm.TrainingModel(Width(0.5));
    EXPECT_EQ(GlobalModel::ThreadTrainingModels() - before, 2u);
    // Width 0.5 was used in the previous version: kept.
    gm.StoreChanged();
    gm.TrainingModel(Width(0.25));
    EXPECT_EQ(GlobalModel::ThreadTrainingModels() - before, 2u);
    // Now in neither the current nor the previous one: dropped.
    gm.StoreChanged();
    gm.TrainingModel(Width(0.25));
    EXPECT_EQ(GlobalModel::ThreadTrainingModels() - before, 1u);
    // Another thread's models are its own.
    std::thread([&] {
      EXPECT_EQ(GlobalModel::ThreadTrainingModels(), 0u);
      gm.TrainingModel(Width(0.5));
      EXPECT_EQ(GlobalModel::ThreadTrainingModels(), 1u);
    }).join();
    EXPECT_EQ(GlobalModel::ThreadTrainingModels() - before, 1u);
  }
  EXPECT_EQ(GlobalModel::ThreadTrainingModels(), before);
}

TEST(GlobalModelTest, ConcurrentFirstUseOfDistinctSpecs) {
  Rng rng(8);
  const auto tm = models::MakeTaskModels("cifar10");
  GlobalModel gm(tm.primary, rng);
  const Tensor x = MakeInput(*tm.primary, 3, rng);
  const std::vector<BuildSpec> specs = {Width(0.25), Width(0.5), Depth(0.5),
                                        Depth(0.75)};
  constexpr int kThreads = 4;
  // Each thread walks every spec from its own starting point, so first uses
  // of distinct specs and of the same spec race.  Run twice: a first build,
  // then a first reload after a store edit.
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      PerturbStore(gm.store(), rng);
      gm.StoreChanged();
    }
    std::vector<std::vector<Tensor>> out(
        kThreads, std::vector<Tensor>(specs.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t j = 0; j < specs.size(); ++j) {
          const std::size_t k = (static_cast<std::size_t>(t) + j) % specs.size();
          out[static_cast<std::size_t>(t)][k] =
              gm.Model(specs[k]).net->Infer(x, nn::NormStats::kBatch);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const Tensor want =
          FreshModel(gm, specs[k], 3).net->Infer(x, nn::NormStats::kBatch);
      for (int t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(SameBytes(out[static_cast<std::size_t>(t)][k], want))
            << "phase " << phase << " spec " << k << " thread " << t;
      }
    }
  }
}

}  // namespace
}  // namespace mhbench::fl
