#include "fl/param_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "models/zoo.h"

namespace mhbench::fl {
namespace {

TEST(ParamStoreTest, FromModuleSnapshotsAllParams) {
  Rng rng(1);
  const auto tm = models::MakeTaskModels("cifar100");
  models::BuildSpec spec;
  spec.multi_head = true;
  auto built = tm.primary->Build(spec, rng);
  ParamStore store = ParamStore::FromModule(*built.net);
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  EXPECT_EQ(store.size(), params.size());
}

TEST(ParamStoreTest, GetUnknownThrows) {
  ParamStore store;
  EXPECT_THROW(store.Get("nope"), Error);
  EXPECT_THROW(store.GetMutable("nope"), Error);
  EXPECT_FALSE(store.Has("nope"));
}

TEST(ParamStoreTest, SetAndGet) {
  ParamStore store;
  store.Set("w", Tensor::FromVector({1, 2, 3}));
  EXPECT_TRUE(store.Has("w"));
  EXPECT_TRUE(store.Get("w").AllClose(Tensor::FromVector({1, 2, 3})));
}

TEST(ParamStoreTest, LoadIntoSubModelGathersSlices) {
  Rng rng(2);
  const auto tm = models::MakeTaskModels("cifar100");
  models::BuildSpec full_spec;
  full_spec.multi_head = true;
  auto global = tm.primary->Build(full_spec, rng);
  ParamStore store = ParamStore::FromModule(*global.net);

  models::BuildSpec half;
  half.width_ratio = 0.5;
  auto sub = tm.primary->Build(half, rng);
  store.LoadInto(*sub.net, sub.mapping);

  // Every loaded tensor equals the gather of the same-named global tensor.
  std::vector<nn::NamedParam> params;
  sub.net->CollectParams("", params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor expect =
        ops::GatherDims(store.Get(sub.mapping[i].name), sub.mapping[i].index);
    EXPECT_TRUE(params[i].param->value.AllClose(expect, 0.0f))
        << sub.mapping[i].name;
  }
}

TEST(ParamStoreTest, NamesSorted) {
  ParamStore store;
  store.Set("b", Tensor({1}));
  store.Set("a", Tensor({1}));
  const auto names = store.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(ParamStoreTest, FlatLayoutConcatenatesInNameOrder) {
  ParamStore store;
  store.Set("c", Tensor({2, 3}));
  store.Set("a", Tensor({4}));
  store.Set("b", Tensor({1}));
  EXPECT_EQ(store.flat_size(), 11u);
  EXPECT_EQ(store.FlatOffset("a"), 0u);
  EXPECT_EQ(store.FlatOffset("b"), 4u);
  EXPECT_EQ(store.FlatOffset("c"), 5u);
  EXPECT_THROW(store.FlatOffset("d"), Error);
  std::vector<std::size_t> visited;
  store.ForEachInLayout(
      [&](std::size_t offset, Tensor&) { visited.push_back(offset); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 4, 5}));
}

TEST(ParamStoreTest, LayoutFingerprintFollowsNamesAndSizes) {
  Rng rng(3);
  const auto tm = models::MakeTaskModels("ucihar");
  auto built = tm.primary->Build(models::BuildSpec{}, rng);
  const ParamStore store = ParamStore::FromModule(*built.net);
  const ParamStore copy = store;
  const ParamStore restored = ParamStore::Deserialize(store.Serialize());
  EXPECT_EQ(copy.layout_fingerprint(), store.layout_fingerprint());
  EXPECT_EQ(restored.layout_fingerprint(), store.layout_fingerprint());
  EXPECT_EQ(restored.flat_size(), store.flat_size());

  ParamStore resized = store;
  const std::string first = store.Names().front();
  resized.Set(first, Tensor({static_cast<int>(store.Get(first).numel()) + 1}));
  EXPECT_NE(resized.layout_fingerprint(), store.layout_fingerprint());
  EXPECT_EQ(resized.flat_size(), store.flat_size() + 1);

  ParamStore a, b;
  a.Set("x", Tensor({4}));
  b.Set("y", Tensor({4}));
  EXPECT_NE(a.layout_fingerprint(), b.layout_fingerprint());

  // FNV-1a over each name with its terminator, then its size as a
  // little-endian u64.
  a.Set("y", Tensor({2, 3}));
  EXPECT_EQ(a.layout_fingerprint(), 0x56f64eca7fb70dfeULL);
}

TEST(ParamStoreTest, ForEachInLayoutRejectsATensorResizedBehindIt) {
  ParamStore store;
  store.Set("w", Tensor({2, 2}));
  store.GetMutable("w") = Tensor({3, 2});
  EXPECT_THROW(store.ForEachInLayout([](std::size_t, Tensor&) {}), Error);
}

TEST(ParamStoreTest, LoadAllRestoresEveryParam) {
  Rng rng(4);
  const auto tm = models::MakeTaskModels("cifar10");
  auto built = tm.primary->Build(models::BuildSpec{}, rng);
  const ParamStore store = ParamStore::FromModule(*built.net);
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  for (auto& p : params) p.param->value.Fill(-7.0f);
  store.LoadAll(*built.net);
  for (const auto& p : params) {
    EXPECT_TRUE(p.param->value.AllClose(store.Get(p.name), 0.0f)) << p.name;
  }
}

TEST(ParamStoreTest, LoadAllMissingParamThrows) {
  Rng rng(5);
  const auto tm = models::MakeTaskModels("cifar10");
  auto built = tm.primary->Build(models::BuildSpec{}, rng);
  ParamStore store;  // empty: every lookup misses
  EXPECT_THROW(store.LoadAll(*built.net), Error);
}

TEST(ParamStoreTest, LoadAllShapeMismatchThrows) {
  Rng rng(6);
  const auto tm = models::MakeTaskModels("cifar10");
  auto built = tm.primary->Build(models::BuildSpec{}, rng);
  ParamStore store = ParamStore::FromModule(*built.net);
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  store.Set(params[0].name, Tensor({1, 1}));  // wrong shape
  EXPECT_THROW(store.LoadAll(*built.net), Error);
}

// Negative paths of the Deserialize wire parser: every malformed prefix
// must throw instead of constructing a partial store.
TEST(ParamStoreDeserializeTest, TruncatedCountHeaderThrows) {
  const std::vector<std::uint8_t> two_bytes = {0x01, 0x00};
  EXPECT_THROW(ParamStore::Deserialize(two_bytes), Error);
}

TEST(ParamStoreDeserializeTest, CountOverrunThrows) {
  // Header promises 1000 entries; no payload follows.
  std::vector<std::uint8_t> bytes = {0xE8, 0x03, 0x00, 0x00};
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

TEST(ParamStoreDeserializeTest, ImplausibleNameLengthThrows) {
  // count=1, then name_len=100000 (> the 4096 guard) with no name bytes —
  // must hit the guard, not try to allocate/read 100000 bytes.
  std::vector<std::uint8_t> bytes = {0x01, 0x00, 0x00, 0x00,
                                     0xA0, 0x86, 0x01, 0x00};
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

TEST(ParamStoreDeserializeTest, TruncatedMidNameThrows) {
  // count=1, name_len=8, only 3 name bytes present.
  std::vector<std::uint8_t> bytes = {0x01, 0x00, 0x00, 0x00,
                                     0x08, 0x00, 0x00, 0x00, 'a', 'b', 'c'};
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

TEST(ParamStoreDeserializeTest, TruncatedMidTensorThrows) {
  ParamStore store;
  store.Set("w", Tensor({4, 4}));
  auto bytes = store.Serialize();
  // Chop into the tensor payload (keep the count + name intact).
  bytes.resize(bytes.size() - 17);
  EXPECT_THROW(ParamStore::Deserialize(bytes), Error);
}

TEST(ParamStoreDeserializeTest, EveryTruncationThrows) {
  ParamStore store;
  store.Set("w", Tensor::FromVector({1, 2, 3}));
  store.Set("x/y", Tensor({2, 2}, 0.5f));
  const auto bytes = store.Serialize();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(n));
    EXPECT_THROW(ParamStore::Deserialize(prefix), Error) << "prefix " << n;
  }
}

}  // namespace
}  // namespace mhbench::fl
