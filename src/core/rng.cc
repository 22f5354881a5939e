#include "core/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.h"

namespace mhbench {

std::uint64_t Rng::NextU64() {
  state_ += kSplitMix64Gamma;
  return SplitMix64Mix(state_);
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  MHB_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  MHB_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t v = NextU64();
  while (v >= limit) v = NextU64();
  return v % n;
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  MHB_CHECK_GE(stddev, 0.0);
  return mean + stddev * Gaussian();
}

double Rng::Gamma(double shape) {
  MHB_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Gaussian();
    double v = 1.0 + c * x;
    if (v <= 0) continue;
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(double alpha, int k) {
  MHB_CHECK_GT(alpha, 0.0);
  MHB_CHECK_GT(k, 0);
  std::vector<double> out(static_cast<std::size_t>(k));
  double sum = 0.0;
  for (auto& v : out) {
    v = Gamma(alpha);
    sum += v;
  }
  if (sum <= 0) {  // numerically degenerate draw; fall back to uniform
    std::fill(out.begin(), out.end(), 1.0 / k);
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

std::vector<int> Rng::Permutation(int n) {
  MHB_CHECK_GE(n, 0);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(UniformInt(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  MHB_CHECK_GE(k, 0);
  MHB_CHECK_LE(k, n);
  std::vector<int> perm = Permutation(n);
  perm.resize(static_cast<std::size_t>(k));
  return perm;
}

int Rng::WeightedChoice(const std::vector<double>& weights) {
  MHB_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    MHB_CHECK_GE(w, 0.0);
    total += w;
  }
  MHB_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork(std::uint64_t stream) {
  // Mix the stream id into a fresh state derived from this generator.
  const std::uint64_t base = NextU64();
  return Rng(base ^ (stream * kSplitMix64Gamma + 0xD1B54A32D192ED03ULL));
}

}  // namespace mhbench
