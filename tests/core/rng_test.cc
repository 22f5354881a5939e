#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/error.h"

namespace mhbench {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.03);
}

TEST(RngTest, GammaMean) {
  Rng rng(9);
  const double shape = 2.5;
  const int n = 30000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
  // Gamma(k, 1) has mean k.
  EXPECT_NEAR(sum / n, shape, 0.07);
}

TEST(RngTest, GammaSmallShapePositive) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.Gamma(0.3), 0.0);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(13);
  for (double alpha : {0.1, 0.5, 1.0, 5.0}) {
    const auto p = rng.Dirichlet(alpha, 10);
    EXPECT_EQ(p.size(), 10u);
    const double sum = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double v : p) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, DirichletConcentration) {
  // Small alpha -> spiky; large alpha -> flat.  Compare max component.
  Rng rng(17);
  double spiky_max = 0, flat_max = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto a = rng.Dirichlet(0.1, 10);
    auto b = rng.Dirichlet(50.0, 10);
    spiky_max += *std::max_element(a.begin(), a.end());
    flat_max += *std::max_element(b.begin(), b.end());
  }
  EXPECT_GT(spiky_max / trials, flat_max / trials + 0.2);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(21);
  const auto perm = rng.Permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto s = rng.SampleWithoutReplacement(100, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<int> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(23);
  const auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<int> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, WeightedChoiceRespectsZeros) {
  Rng rng(29);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedChoice(w), 1);
  }
}

TEST(RngTest, WeightedChoiceProportional) {
  Rng rng(31);
  const std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.WeightedChoice(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(1);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------------------
// Golden sequences.  The parallel engine's determinism guarantee rests on
// these exact draws: phase 1 of every round consumes SampleWithoutReplacement,
// per-client Uniform availability draws and per-client Forks in a fixed serial
// order.  Any change to the generator silently invalidates all recorded
// results, so the values themselves are pinned here.

TEST(RngGoldenTest, NextU64Sequence) {
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 13679457532755275413ull);
  EXPECT_EQ(rng.NextU64(), 2949826092126892291ull);
  EXPECT_EQ(rng.NextU64(), 5139283748462763858ull);
  EXPECT_EQ(rng.NextU64(), 6349198060258255764ull);
  EXPECT_EQ(rng.NextU64(), 701532786141963250ull);
}

// The exported finalizer is the one NextU64 applies: SplitMix64's first
// output for seed 0 is the reference implementation's 0xE220A8397B1DCDAF.
TEST(RngGoldenTest, SplitMix64MixIsTheNextU64Finalizer) {
  EXPECT_EQ(SplitMix64Mix(kSplitMix64Gamma), 0xE220A8397B1DCDAFull);
  Rng rng(42);
  std::uint64_t state = 42;
  for (int i = 0; i < 5; ++i) {
    state += kSplitMix64Gamma;
    EXPECT_EQ(rng.NextU64(), SplitMix64Mix(state));
  }
}

TEST(RngGoldenTest, UniformSequence) {
  Rng rng(7);
  EXPECT_EQ(rng.Uniform(), 0.38982974839127149);
  EXPECT_EQ(rng.Uniform(), 0.016788294528156111);
  EXPECT_EQ(rng.Uniform(), 0.90076068060688341);
  EXPECT_EQ(rng.Uniform(), 0.58293029302807808);
}

TEST(RngGoldenTest, ForkStreamsAndParentAdvance) {
  // Fork consumes one parent draw, so fork ORDER matters: the engine relies
  // on forking survivors serially.  Same stream id after an advance yields a
  // different child (ForkC != ForkA).
  Rng parent(1);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  Rng c = parent.Fork(0);
  EXPECT_EQ(a.NextU64(), 2569293373224866520ull);
  EXPECT_EQ(b.NextU64(), 12544609088445459266ull);
  EXPECT_EQ(c.NextU64(), 15138301343510825807ull);
  EXPECT_EQ(parent.NextU64(), 8196980753821780235ull);
}

TEST(RngGoldenTest, SampleWithoutReplacementSequence) {
  // The engine's client-sampling draw (and its order) per round.
  Rng rng(23);
  EXPECT_EQ(rng.SampleWithoutReplacement(10, 4),
            (std::vector<int>{3, 5, 8, 0}));
  // A full-population sample is a permutation; also golden-pinned.
  EXPECT_EQ(rng.SampleWithoutReplacement(6, 6),
            (std::vector<int>{2, 1, 0, 3, 4, 5}));
}

TEST(RngTest, ChecksInvalidArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(0), Error);
  EXPECT_THROW(rng.Dirichlet(0.0, 5), Error);
  EXPECT_THROW(rng.Gamma(-1.0), Error);
  EXPECT_THROW(rng.WeightedChoice({}), Error);
  EXPECT_THROW(rng.WeightedChoice({0.0, 0.0}), Error);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), Error);
}

}  // namespace
}  // namespace mhbench
