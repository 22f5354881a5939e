#include "fl/aggregator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <latch>
#include <map>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "models/zoo.h"
#include "nn/linear.h"

namespace mhbench::fl {
namespace {

// A one-parameter "model" for aggregation math checks.
struct Fixture {
  ParamStore store;
  Fixture() { store.Set("weight", Tensor({4, 4}, 0.0f)); }

  // Builds a linear holding `value` on rows `rows` (all 4 columns).
  static std::pair<std::unique_ptr<nn::Linear>, models::ParamMapping>
  ClientModel(const std::vector<int>& rows, float value) {
    auto lin = std::make_unique<nn::Linear>(
        Tensor({static_cast<int>(rows.size()), 4}, value), Tensor());
    models::ParamMapping mapping = {
        {"weight", {rows, std::nullopt}},
    };
    return {std::move(lin), mapping};
  }
};

TEST(MaskedAveragerTest, SingleClientOverwritesItsSlice) {
  Fixture f;
  MaskedAverager avg;
  auto [m, map] = Fixture::ClientModel({0, 1}, 3.0f);
  avg.Accumulate(ExtractUpdate(*m, map, f.store, 10.0), f.store);
  avg.ApplyTo(f.store);
  const Tensor& w = f.store.Get("weight");
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(w.at({0, j}), 3.0f);
    EXPECT_EQ(w.at({1, j}), 3.0f);
    EXPECT_EQ(w.at({2, j}), 0.0f);  // untouched rows keep old values
    EXPECT_EQ(w.at({3, j}), 0.0f);
  }
}

TEST(MaskedAveragerTest, OverlapAveragedNonOverlapKept) {
  Fixture f;
  MaskedAverager avg;
  auto [m1, map1] = Fixture::ClientModel({0, 1}, 2.0f);
  auto [m2, map2] = Fixture::ClientModel({1, 2}, 6.0f);
  avg.Accumulate(ExtractUpdate(*m1, map1, f.store, 1.0), f.store);
  avg.Accumulate(ExtractUpdate(*m2, map2, f.store, 1.0), f.store);
  avg.ApplyTo(f.store);
  const Tensor& w = f.store.Get("weight");
  EXPECT_EQ(w.at({0, 0}), 2.0f);  // only client 1
  EXPECT_EQ(w.at({1, 0}), 4.0f);  // both: (2+6)/2
  EXPECT_EQ(w.at({2, 0}), 6.0f);  // only client 2
  EXPECT_EQ(w.at({3, 0}), 0.0f);  // nobody
}

TEST(MaskedAveragerTest, WeightedAverage) {
  Fixture f;
  MaskedAverager avg;
  auto [m1, map1] = Fixture::ClientModel({0}, 1.0f);
  auto [m2, map2] = Fixture::ClientModel({0}, 4.0f);
  avg.Accumulate(ExtractUpdate(*m1, map1, f.store, 3.0), f.store);
  avg.Accumulate(ExtractUpdate(*m2, map2, f.store, 1.0), f.store);
  avg.ApplyTo(f.store);
  // (3*1 + 1*4) / 4 = 1.75
  EXPECT_NEAR(f.store.Get("weight").at({0, 0}), 1.75f, 1e-6);
}

TEST(MaskedAveragerTest, ApplyClearsAccumulator) {
  Fixture f;
  MaskedAverager avg;
  auto [m, map] = Fixture::ClientModel({0}, 1.0f);
  avg.Accumulate(ExtractUpdate(*m, map, f.store, 1.0), f.store);
  avg.ApplyTo(f.store);
  EXPECT_TRUE(avg.empty());
  EXPECT_THROW(avg.ApplyTo(f.store), Error);
}

TEST(MaskedAveragerTest, RejectsNonPositiveWeight) {
  Fixture f;
  MaskedAverager avg;
  auto [m, map] = Fixture::ClientModel({0}, 1.0f);
  EXPECT_THROW(ExtractUpdate(*m, map, f.store, 0.0), Error);
  ClientUpdate update = ExtractUpdate(*m, map, f.store, 1.0);
  update.weight = 0.0;
  EXPECT_THROW(avg.Accumulate(update, f.store), Error);
}

TEST(MaskedAveragerTest, IdempotentOnIdenticalClients) {
  // Averaging k identical clients equals any one of them.
  Fixture f;
  MaskedAverager avg;
  for (int k = 0; k < 5; ++k) {
    auto [m, map] = Fixture::ClientModel({0, 1, 2, 3}, 7.0f);
    avg.Accumulate(ExtractUpdate(*m, map, f.store, 2.0), f.store);
  }
  avg.ApplyTo(f.store);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(f.store.Get("weight")[i], 7.0f, 1e-5);
  }
}

TEST(MaskedAveragerTest, UpdateNamesItsRowsAsOneRunOfTheLayout) {
  Fixture f;
  f.store.Set("bias", Tensor({3}, 0.0f));  // sorts first: "weight" at 3
  auto [m, map] = Fixture::ClientModel({1, 2}, 5.0f);
  const ClientUpdate u = ExtractUpdate(*m, map, f.store, 1.0);
  EXPECT_EQ(u.runs, (std::vector<ops::CoordRun>{{3 + 4, 8}}));
  EXPECT_EQ(u.values, std::vector<Scalar>(8, 5.0f));
}

TEST(MaskedAveragerTest, ExtractRejectsAMappingThatDoesNotFit) {
  Fixture f;
  auto [m, map] = Fixture::ClientModel({0, 1}, 1.0f);
  models::ParamMapping out_of_range = {{"weight", {std::vector<int>{0, 4},
                                                  std::nullopt}}};
  EXPECT_THROW(ExtractUpdate(*m, out_of_range, f.store, 1.0), Error);
  models::ParamMapping empty_list = {{"weight", {std::vector<int>{},
                                                 std::nullopt}}};
  EXPECT_THROW(ExtractUpdate(*m, empty_list, f.store, 1.0), Error);
  models::ParamMapping wrong_shape = {{"weight", {std::vector<int>{0, 1, 2},
                                                  std::nullopt}}};
  EXPECT_THROW(ExtractUpdate(*m, wrong_shape, f.store, 1.0), Error);
  models::ParamMapping wrong_name = {{"bias", {std::vector<int>{0, 1},
                                               std::nullopt}}};
  EXPECT_THROW(ExtractUpdate(*m, wrong_name, f.store, 1.0), Error);
  models::ParamMapping wrong_arity = {{"weight", {std::vector<int>{0, 1}}}};
  EXPECT_THROW(ExtractUpdate(*m, wrong_arity, f.store, 1.0), Error);
}

TEST(MaskedAveragerTest, RejectsAStoreOfAnotherLayout) {
  Fixture f;
  auto [m, map] = Fixture::ClientModel({0}, 1.0f);
  const ClientUpdate u = ExtractUpdate(*m, map, f.store, 1.0);

  ParamStore renamed;  // same size, other name
  renamed.Set("other", Tensor({4, 4}, 0.0f));
  MaskedAverager avg;
  avg.Accumulate(u, f.store);
  EXPECT_THROW(avg.Accumulate(u, renamed), Error);
  EXPECT_THROW(avg.ApplyTo(renamed), Error);

  // A tensor resized behind GetMutable no longer fits the layout.
  ParamStore resized = f.store;
  resized.GetMutable("weight") = Tensor({2, 4}, 0.0f);
  EXPECT_THROW(avg.ApplyTo(resized), Error);

  // A run past the end of the layout.
  ClientUpdate past_end = u;
  past_end.runs = {{12, 8}};
  past_end.values.assign(8, 1.0f);
  MaskedAverager other;
  EXPECT_THROW(other.Accumulate(past_end, f.store), Error);
  EXPECT_TRUE(other.empty());
}

// Staged uploads made on pool workers are merged and destroyed on the
// merging thread without touching its tensor pool: no buffer comes from
// its heap and none is returned to it.  (Tensor buffers freed on a thread
// land in that thread's pool, which the merging thread never reuses at
// those sizes.)
TEST(MaskedAveragerTest, RoundMergeReturnsNothingToTheMergingThreadsPool) {
  Rng rng(5);
  const auto tm = models::MakeTaskModels("ucihar");
  models::BuildSpec full;
  full.multi_head = true;
  auto global = tm.primary->Build(full, rng);
  ParamStore store = ParamStore::FromModule(*global.net);
  std::vector<models::BuiltModel> clients;
  for (int c = 0; c < 8; ++c) {
    models::BuildSpec spec;
    spec.width_ratio = 0.25 * (c % 4 + 1);
    clients.push_back(tm.primary->Build(spec, rng));
  }
  core::ThreadPool pool(2);
  MaskedAverager avg;
  auto round = [&] {
    std::vector<ClientUpdate> updates(clients.size());
    std::latch done(static_cast<std::ptrdiff_t>(clients.size()));
    for (std::size_t c = 0; c < clients.size(); ++c) {
      pool.Submit([&, c] {
        updates[c] = ExtractUpdate(*clients[c].net, clients[c].mapping, store,
                                   static_cast<double>(c + 1));
        done.count_down();
      });
    }
    done.wait();
    for (const ClientUpdate& u : updates) avg.Accumulate(u, store);
    avg.ApplyTo(store);
  };
  round();  // warm-up
  const Tensor::AllocStats before = Tensor::ThreadAllocStats();
  round();
  const Tensor::AllocStats after = Tensor::ThreadAllocStats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
  EXPECT_EQ(after.pool_returns, before.pool_returns);
}

// Naive dense reference for masked averaging: walks every coordinate of
// every client tensor, maps its local multi-index to the global flat offset
// through the slice's DimIndices, and accumulates sum += w * v and
// weight += w in float, in client order.  Coordinates nobody covered keep
// their value from `before`; `covered` marks the others.
struct DenseResult {
  ParamStore store;
  std::map<std::string, std::vector<bool>> covered;
};

// A trained client as the reference sees it: the model's parameter values
// in mapping order, its mapping and its weight (no ClientUpdate involved).
struct ClientValues {
  models::ParamMapping mapping;
  std::vector<Tensor> values;
  double weight = 0.0;
};

ClientValues ValuesOf(const models::BuiltModel& built, double weight) {
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  ClientValues out{built.mapping, {}, weight};
  for (const auto& p : params) out.values.push_back(p.param->value);
  return out;
}

DenseResult DenseReference(const ParamStore& before,
                           const std::vector<ClientValues>& clients) {
  std::map<std::string, std::vector<float>> sum, wsum;
  for (const ClientValues& u : clients) {
    const auto w = static_cast<float>(u.weight);
    for (std::size_t i = 0; i < u.values.size(); ++i) {
      const models::ParamSlice& slice = u.mapping[i];
      const Tensor& v = u.values[i];
      const Shape& full = before.Get(slice.name).shape();
      const std::size_t n = ShapeNumel(full);
      std::vector<float>& s = sum[slice.name];
      std::vector<float>& ws = wsum[slice.name];
      s.resize(n, 0.0f);
      ws.resize(n, 0.0f);
      const std::size_t nd = full.size();
      MHB_CHECK_EQ(slice.index.size(), nd) << slice.name;
      std::vector<int> local(nd, 0);
      for (std::size_t k = 0; k < v.numel(); ++k) {
        std::size_t g = 0;
        for (std::size_t d = 0; d < nd; ++d) {
          const int gi = slice.index[d].has_value()
                             ? (*slice.index[d])[static_cast<std::size_t>(
                                   local[d])]
                             : local[d];
          g = g * static_cast<std::size_t>(full[d]) +
              static_cast<std::size_t>(gi);
        }
        s[g] += w * v[k];
        ws[g] += w;
        for (std::size_t d = nd; d-- > 0;) {
          if (++local[d] < v.shape()[d]) break;
          local[d] = 0;
        }
      }
    }
  }
  DenseResult out{before, {}};
  for (const std::string& name : before.Names()) {
    std::vector<bool>& covered = out.covered[name];
    covered.assign(before.Get(name).numel(), false);
    auto it = sum.find(name);
    if (it == sum.end()) continue;
    Tensor& t = out.store.GetMutable(name);
    const std::vector<float>& ws = wsum.at(name);
    for (std::size_t g = 0; g < ws.size(); ++g) {
      if (ws[g] > 0) {
        t[g] = it->second[g] / ws[g];
        covered[g] = true;
      }
    }
  }
  return out;
}

// One slicing rule: the BuildSpec an algorithm hands a client of capacity
// `ratio`, with `rng` supplying any per-client randomness.
struct SlicingRule {
  std::string name;
  std::string task;
  std::function<models::BuildSpec(double ratio, Rng& rng)> spec;
};

std::vector<SlicingRule> SlicingRules() {
  auto width = [](double r, Rng&) {  // SHeteroFL, Fjord
    models::BuildSpec s;
    s.width_ratio = r;
    return s;
  };
  auto rolling = [](double r, Rng& rng) {  // FedRolex
    models::BuildSpec s;
    s.width_ratio = r;
    s.rolling = true;
    s.width_offset = static_cast<int>(rng.UniformInt(1000));
    return s;
  };
  auto depth = [](double r, Rng&) {  // InclusiveFL, FeDepth
    models::BuildSpec s;
    s.depth_ratio = r;
    return s;
  };
  auto depth_multi_head = [](double r, Rng&) {  // DepthFL
    models::BuildSpec s;
    s.depth_ratio = r;
    s.multi_head = true;
    return s;
  };
  return {
      {"width_prefix", "cifar10", width},
      {"rolling", "cifar10", rolling},
      {"depth_prefix", "cifar10", depth},
      {"depth_multi_head", "cifar10", depth_multi_head},
      {"depth_multi_head_transformer", "ucihar", depth_multi_head},
  };
}

void FillRandom(Tensor& t, Rng& rng) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian());
  }
}

// MaskedAverager against the dense reference for every slicing rule the
// weight-sharing algorithms use: random sub-model values and weights, a
// random global store, bit-equal results, and untouched coordinates left
// at their old values.
TEST(MaskedAveragerDenseReferenceTest, MatchesNaiveReferenceBitForBit) {
  const std::vector<double> ratios = {0.25, 0.5, 0.75};
  for (const SlicingRule& rule : SlicingRules()) {
    SCOPED_TRACE(rule.name);
    Rng rng(1234);
    const auto tm = models::MakeTaskModels(rule.task);
    models::BuildSpec full;
    full.multi_head = true;  // every head any client may carry
    auto global = tm.primary->Build(full, rng);
    ParamStore before = ParamStore::FromModule(*global.net);
    for (const std::string& name : before.Names()) {
      FillRandom(before.GetMutable(name), rng);
    }

    std::vector<ClientValues> clients;
    std::vector<ClientUpdate> updates;
    for (int c = 0; c < 5; ++c) {
      const double ratio = ratios[rng.UniformInt(ratios.size())];
      auto built = tm.primary->Build(rule.spec(ratio, rng), rng);
      std::vector<nn::NamedParam> params;
      built.net->CollectParams("", params);
      for (auto& p : params) FillRandom(p.param->value, rng);
      const double weight = rng.Uniform(0.5, 64.0);
      clients.push_back(ValuesOf(built, weight));
      updates.push_back(
          ExtractUpdate(*built.net, built.mapping, before, weight));
    }

    const DenseResult want = DenseReference(before, clients);
    ParamStore got = before;
    MaskedAverager avg;
    for (const ClientUpdate& u : updates) avg.Accumulate(u, got);
    avg.ApplyTo(got);

    std::size_t covered = 0, untouched = 0;
    for (const std::string& name : before.Names()) {
      const Tensor& w = want.store.Get(name);
      const Tensor& g = got.Get(name);
      const Tensor& b = before.Get(name);
      const std::vector<bool>& mask = want.covered.at(name);
      ASSERT_EQ(w.shape(), g.shape()) << name;
      for (std::size_t i = 0; i < w.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(w[i]),
                  std::bit_cast<std::uint32_t>(g[i]))
            << name << "[" << i << "]: reference " << w[i] << " got " << g[i];
        if (mask[i]) {
          ++covered;
        } else {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(g[i]),
                    std::bit_cast<std::uint32_t>(b[i]))
              << name << "[" << i << "] was covered by no client";
          ++untouched;
        }
      }
    }
    // Every rule leaves some coordinates to nobody (capacities < 1) and
    // averages the rest.
    EXPECT_GT(covered, 0u);
    EXPECT_GT(untouched, 0u);
  }
}

}  // namespace
}  // namespace mhbench::fl
