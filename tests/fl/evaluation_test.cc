#include "fl/evaluation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/error.h"

namespace mhbench::fl {
namespace {

data::Dataset TwoClassDataset(int n) {
  data::Dataset ds;
  ds.num_classes = 2;
  ds.features = Tensor({n, 1});
  ds.labels.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ds.features[static_cast<std::size_t>(i)] = i % 2 == 0 ? -1.0f : 1.0f;
    ds.labels[static_cast<std::size_t>(i)] = i % 2;
  }
  return ds;
}

// Perfect classifier on the dataset above.
Tensor PerfectLogits(const Tensor& x) {
  Tensor logits({x.dim(0), 2});
  for (int i = 0; i < x.dim(0); ++i) {
    logits.at({i, 0}) = -x[static_cast<std::size_t>(i)];
    logits.at({i, 1}) = x[static_cast<std::size_t>(i)];
  }
  return logits;
}

TEST(EvaluationTest, PerfectClassifierScoresOne) {
  const auto ds = TwoClassDataset(100);
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(PerfectLogits, ds), 1.0);
}

TEST(EvaluationTest, InvertedClassifierScoresZero) {
  const auto ds = TwoClassDataset(100);
  auto inverted = [](const Tensor& x) {
    Tensor l = PerfectLogits(x);
    l.Scale(-1.0f);
    return l;
  };
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(inverted, ds), 0.0);
}

TEST(EvaluationTest, MaxSamplesLimitsEvaluation) {
  auto ds = TwoClassDataset(100);
  // Corrupt labels beyond the first 10 samples; with max_samples=10 the
  // corruption is invisible.
  for (std::size_t i = 10; i < 100; ++i) ds.labels[i] = 1 - ds.labels[i];
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(PerfectLogits, ds, 10), 1.0);
  EXPECT_LT(EvaluateAccuracy(PerfectLogits, ds), 0.2);
}

TEST(EvaluationTest, BatchBoundariesDoNotChangeResult) {
  const auto ds = TwoClassDataset(37);  // prime-ish, forces a partial batch
  const double a = EvaluateAccuracy(PerfectLogits, ds, 0, 8);
  const double b = EvaluateAccuracy(PerfectLogits, ds, 0, 37);
  const double c = EvaluateAccuracy(PerfectLogits, ds, 0, 5);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(b, c);
}

// Batches spread over a pool: the integer per-batch counts sum to the
// serial result exactly, and every batch keeps its serial boundaries.
TEST(EvaluationTest, PooledBatchesMatchSerial) {
  auto ds = TwoClassDataset(203);
  for (std::size_t i = 0; i < ds.labels.size(); i += 3) {
    ds.labels[i] = 1 - ds.labels[i];
  }
  std::vector<std::atomic<int>> batch_rows(8);
  auto logits_fn = [&](const Tensor& x) {
    const auto b = static_cast<std::size_t>(x.dim(0));
    if (b < batch_rows.size()) batch_rows[b].fetch_add(1);
    return PerfectLogits(x);
  };
  const double serial = EvaluateAccuracy(logits_fn, ds, 0, 7);
  core::ThreadPool pool(3);
  EXPECT_EQ(EvaluateAccuracy(logits_fn, ds, 0, 7, &pool), serial);
  EXPECT_EQ(EvaluateAccuracy(logits_fn, ds, 150, 7, &pool),
            EvaluateAccuracy(logits_fn, ds, 150, 7));
  // 203 = 29 * 7 and 150 = 21 * 7 + 3: only full batches, plus one
  // 3-row tail per 150-sample call.
  EXPECT_EQ(batch_rows[7].load(), 2 * 29 + 2 * 21);
  EXPECT_EQ(batch_rows[3].load(), 2);
}

TEST(EvaluationTest, EmptyDatasetThrows) {
  data::Dataset ds;
  ds.num_classes = 2;
  EXPECT_THROW(EvaluateAccuracy(PerfectLogits, ds), Error);
}

}  // namespace
}  // namespace mhbench::fl
