#include <optional>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "models/index_map.h"
#include "tensor/ops.h"

namespace mhbench {
namespace {

using ops::DimIndices;

TEST(GatherDimsTest, SelectRowsOfMatrix) {
  Tensor m({3, 2}, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  DimIndices idx = {std::vector<int>{0, 2}, std::nullopt};
  const Tensor g = ops::GatherDims(m, idx);
  EXPECT_TRUE(g.AllClose(Tensor({2, 2}, std::vector<Scalar>{1, 2, 5, 6})));
}

TEST(GatherDimsTest, SelectRowsAndCols) {
  Tensor m({3, 3}, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  DimIndices idx = {std::vector<int>{1, 2}, std::vector<int>{0, 2}};
  EXPECT_TRUE(ops::GatherDims(m, idx).AllClose(
      Tensor({2, 2}, std::vector<Scalar>{4, 6, 7, 9})));
}

TEST(GatherDimsTest, IdentityWhenAllAbsent) {
  Rng rng(1);
  Tensor t = Tensor::Randn({2, 3, 4}, rng);
  DimIndices idx(3, std::nullopt);
  EXPECT_TRUE(ops::GatherDims(t, idx).AllClose(t));
}

TEST(GatherDimsTest, NonContiguousAndReordered) {
  Tensor v = Tensor::FromVector({10, 20, 30, 40});
  DimIndices idx = {std::vector<int>{3, 0}};
  EXPECT_TRUE(
      ops::GatherDims(v, idx).AllClose(Tensor::FromVector({40, 10})));
}

TEST(GatherDimsTest, Rank4ConvWeightSlicing) {
  // Slice out-channels {1} and in-channels {0, 2} of a [2, 3, 1, 1] weight.
  Tensor w({2, 3, 1, 1}, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  DimIndices idx = {std::vector<int>{1}, std::vector<int>{0, 2}, std::nullopt,
                    std::nullopt};
  EXPECT_TRUE(ops::GatherDims(w, idx).AllClose(
      Tensor({1, 2, 1, 1}, std::vector<Scalar>{4, 6})));
}

TEST(GatherDimsTest, OutOfRangeIndexThrows) {
  Tensor v = Tensor::FromVector({1, 2});
  DimIndices idx = {std::vector<int>{2}};
  EXPECT_THROW(ops::GatherDims(v, idx), Error);
  DimIndices neg = {std::vector<int>{-1}};
  EXPECT_THROW(ops::GatherDims(v, neg), Error);
}

TEST(GatherDimsTest, WrongArityThrows) {
  Tensor v({2, 2});
  DimIndices idx = {std::nullopt};
  EXPECT_THROW(ops::GatherDims(v, idx), Error);
}

// The runs of a selection, from offset 0 of the full tensor.
std::vector<ops::CoordRun> RunsOf(const Shape& full, const DimIndices& idx) {
  std::vector<ops::CoordRun> runs;
  ops::AppendSelectedRuns(full, idx, 0, runs);
  return runs;
}

TEST(SelectedRunsTest, FullTensorIsOneRun) {
  std::vector<ops::CoordRun> runs;
  const Shape selected = ops::AppendSelectedRuns(
      {3, 4, 2}, DimIndices(3, std::nullopt), 10, runs);
  EXPECT_EQ(selected, (Shape{3, 4, 2}));
  EXPECT_EQ(runs, (std::vector<ops::CoordRun>{{10, 24}}));
}

TEST(SelectedRunsTest, ConvWidthPrefixIsOneRunPerKeptOutChannel) {
  // A width-prefix slice of a [oc, ic, 1, k] conv weight keeps the first
  // ic' input channels of each of the first oc' filters: oc' runs of
  // ic' * k, one filter (ic * k floats) apart.
  const Shape full = {8, 6, 1, 5};
  const DimIndices idx = {models::PrefixIndices(8, 4),
                          models::PrefixIndices(6, 3), std::nullopt,
                          std::nullopt};
  std::vector<ops::CoordRun> runs;
  const Shape selected = ops::AppendSelectedRuns(full, idx, 100, runs);
  EXPECT_EQ(selected, (Shape{4, 3, 1, 5}));
  EXPECT_EQ(runs, (std::vector<ops::CoordRun>{
                      {100, 15}, {130, 15}, {160, 15}, {190, 15}}));
}

TEST(SelectedRunsTest, RollingWindowSplitsWhereItWraps) {
  // FedRolex's window {6, 7, 0, 1} over 8 rows of 3: rows 6-7 and 0-1 are
  // each contiguous, and the runs keep the window's order.
  const DimIndices idx = {models::RollingIndices(8, 4, 6), std::nullopt};
  EXPECT_EQ(RunsOf({8, 3}, idx),
            (std::vector<ops::CoordRun>{{18, 6}, {0, 6}}));
  // Without a wrap the window is one run.
  const DimIndices inner = {models::RollingIndices(8, 4, 2), std::nullopt};
  EXPECT_EQ(RunsOf({8, 3}, inner), (std::vector<ops::CoordRun>{{6, 12}}));
}

TEST(SelectedRunsTest, ExtendsARunFromAnEarlierCall) {
  std::vector<ops::CoordRun> runs;
  ops::AppendSelectedRuns({4}, DimIndices(1, std::nullopt), 0, runs);
  ops::AppendSelectedRuns({2, 2}, {std::vector<int>{0}, std::nullopt}, 4,
                          runs);
  EXPECT_EQ(runs, (std::vector<ops::CoordRun>{{0, 6}}));
}

TEST(SelectedRunsTest, ChecksWhatGatherChecks) {
  std::vector<ops::CoordRun> runs;
  EXPECT_THROW(ops::AppendSelectedRuns({2}, {std::vector<int>{2}}, 0, runs),
               Error);
  EXPECT_THROW(ops::AppendSelectedRuns({2}, {std::vector<int>{-1}}, 0, runs),
               Error);
  EXPECT_THROW(ops::AppendSelectedRuns({2}, {std::vector<int>{}}, 0, runs),
               Error);
  EXPECT_THROW(ops::AppendSelectedRuns({2, 2}, {std::nullopt}, 0, runs),
               Error);
  EXPECT_THROW(ops::AppendSelectedRuns({2}, DimIndices(2, std::nullopt), 0,
                                       runs),
               Error);
}

TEST(GatherScatterTest, RoundTripRestoresSelection) {
  // Gather, then writing the gathered values back through the selection's
  // runs, is the identity.
  Rng rng(2);
  Tensor t = Tensor::Randn({4, 5}, rng);
  DimIndices idx = {std::vector<int>{1, 3}, std::vector<int>{0, 2, 4}};
  const Tensor g = ops::GatherDims(t, idx);
  const std::vector<ops::CoordRun> runs = RunsOf(t.shape(), idx);
  Tensor t2 = t;
  for (const ops::CoordRun& run : runs) {
    for (std::size_t i = 0; i < run.length; ++i) t2[run.offset + i] = 0.0f;
  }
  EXPECT_FALSE(t2.AllClose(t, 0.0f));
  std::size_t k = 0;
  for (const ops::CoordRun& run : runs) {
    for (std::size_t i = 0; i < run.length; ++i) t2[run.offset + i] = g[k++];
  }
  EXPECT_EQ(k, g.numel());
  EXPECT_TRUE(t2.AllClose(t, 0.0f));
}

TEST(GatherScatterTest, AdjointProperty) {
  // <Gather(x), y> == <x, S(y)> when indices are unique, where S adds y
  // into zeros at the coordinates the selection's runs name.
  Rng rng(3);
  Tensor x = Tensor::Randn({5, 4}, rng);
  DimIndices idx = {std::vector<int>{0, 2, 4}, std::vector<int>{1, 3}};
  const Tensor gx = ops::GatherDims(x, idx);
  Tensor y = Tensor::Randn(gx.shape(), rng);
  Tensor sy({5, 4});
  std::size_t k = 0;
  for (const ops::CoordRun& run : RunsOf(x.shape(), idx)) {
    for (std::size_t i = 0; i < run.length; ++i) sy[run.offset + i] += y[k++];
  }
  ASSERT_EQ(k, y.numel());
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < gx.numel(); ++i) lhs += static_cast<double>(gx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * sy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace mhbench
