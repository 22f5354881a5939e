#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "obs/registry.h"

namespace mhbench::obs {
namespace {

TEST(HistogramBucketTest, BoundariesArePowersOfTwo) {
  // Bucket 0 holds everything <= 0; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Registry::BucketIndex(std::numeric_limits<std::int64_t>::min()),
            0);
  EXPECT_EQ(Registry::BucketIndex(-1), 0);
  EXPECT_EQ(Registry::BucketIndex(0), 0);
  EXPECT_EQ(Registry::BucketIndex(1), 1);
  EXPECT_EQ(Registry::BucketIndex(2), 2);
  EXPECT_EQ(Registry::BucketIndex(3), 2);
  EXPECT_EQ(Registry::BucketIndex(4), 3);
  EXPECT_EQ(Registry::BucketIndex(1023), 10);
  EXPECT_EQ(Registry::BucketIndex(1024), 11);
  EXPECT_EQ(Registry::BucketIndex(std::numeric_limits<std::int64_t>::max()),
            63);
  for (int b = 1; b < 63; ++b) {
    const std::int64_t lo = Registry::BucketLo(b);
    const std::int64_t hi = Registry::BucketHi(b);
    EXPECT_EQ(Registry::BucketIndex(lo), b) << "lo of bucket " << b;
    EXPECT_EQ(Registry::BucketIndex(hi), b) << "hi of bucket " << b;
    EXPECT_EQ(Registry::BucketIndex(hi + 1), b + 1);
  }
}

TEST(HistogramDataTest, ObserveTracksCountSumMinMax) {
  Registry::HistogramData h;
  EXPECT_TRUE(h.empty());
  for (const std::int64_t v : {5, 1, 9, 9, 3}) h.Observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum, 27);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 9);
}

TEST(HistogramDataTest, MergeIsAssociativeAndCommutative) {
  auto fill = [](std::initializer_list<std::int64_t> vs) {
    Registry::HistogramData h;
    for (const std::int64_t v : vs) h.Observe(v);
    return h;
  };
  const auto a = fill({1, 100, 7});
  const auto b = fill({3});
  const auto c = fill({50000, 2, 2});

  Registry::HistogramData ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  Registry::HistogramData a_bc = b;
  a_bc.Merge(c);
  a_bc.Merge(a);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.min, a_bc.min);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_DOUBLE_EQ(ab_c.Quantile(0.5), a_bc.Quantile(0.5));

  Registry::HistogramData with_empty = a;
  with_empty.Merge(Registry::HistogramData{});
  EXPECT_EQ(with_empty.buckets, a.buckets);
  EXPECT_EQ(with_empty.min, a.min);
}

TEST(HistogramDataTest, QuantilesClampToObservedRange) {
  Registry::HistogramData h;
  h.Observe(42);
  // A single observation must report itself at every quantile.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);

  Registry::HistogramData many;
  for (std::int64_t v = 1; v <= 1000; ++v) many.Observe(v);
  const double p50 = many.Quantile(0.5);
  EXPECT_GE(p50, many.min);
  EXPECT_LE(p50, many.max);
  EXPECT_LE(many.Quantile(0.5), many.Quantile(0.95));
  EXPECT_LE(many.Quantile(0.95), many.Quantile(0.99));
}

// The determinism contract: observations from any thread, published at the
// barrier, must give bucket totals (and therefore quantiles) that do not
// depend on how observations were spread over threads.
TEST(HistogramRegistryTest, TotalsIdenticalAcrossThreadCounts) {
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 500; ++i) values.push_back((i * 37) % 6000);

  auto run = [&values](int threads) {
    Registry reg;
    const Registry::HistogramId id = reg.Histogram("lat_us");
    core::ThreadPool pool(threads);
    core::ParallelFor(&pool, values.size(), [&](std::size_t i) {
      reg.Observe(id, values[i]);
    });
    reg.EndRound("run", 0);
    return reg.HistogramTotals("lat_us");
  };

  const Registry::HistogramData h1 = run(1);
  for (const int threads : {2, 4}) {
    const Registry::HistogramData hn = run(threads);
    EXPECT_EQ(h1.buckets, hn.buckets) << threads << " threads";
    EXPECT_EQ(h1.sum, hn.sum);
    EXPECT_EQ(h1.min, hn.min);
    EXPECT_EQ(h1.max, hn.max);
    EXPECT_DOUBLE_EQ(h1.Quantile(0.5), hn.Quantile(0.5));
    EXPECT_DOUBLE_EQ(h1.Quantile(0.95), hn.Quantile(0.95));
    EXPECT_DOUBLE_EQ(h1.Quantile(0.99), hn.Quantile(0.99));
  }
}

TEST(HistogramRegistryTest, RoundRowsCarryPerRoundDeltas) {
  Registry reg;
  const Registry::HistogramId id = reg.Histogram("bytes");
  reg.Observe(id, 100);
  reg.Observe(id, 300);
  reg.EndRound("run", 0);
  reg.Observe(id, 7);
  reg.EndRound("run", 1);

  const std::vector<Registry::RoundRow>& rows = reg.rounds();
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].hists.count("bytes"), 1u);
  EXPECT_EQ(rows[0].hists.at("bytes").count(), 2);
  EXPECT_EQ(rows[0].hists.at("bytes").sum, 400);
  // Round 1 starts fresh: min/max reflect only the new observation.
  ASSERT_EQ(rows[1].hists.count("bytes"), 1u);
  EXPECT_EQ(rows[1].hists.at("bytes").count(), 1);
  EXPECT_EQ(rows[1].hists.at("bytes").min, 7);
  EXPECT_EQ(rows[1].hists.at("bytes").max, 7);
  // The cumulative totals still span both rounds.
  const Registry::HistogramData total = reg.HistogramTotals("bytes");
  EXPECT_EQ(total.count(), 3);
  EXPECT_EQ(total.min, 7);
  EXPECT_EQ(total.max, 300);
}

}  // namespace
}  // namespace mhbench::obs
