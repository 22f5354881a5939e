// Deterministic random number generation.
//
// Every stochastic component of the platform draws from an `Rng` seeded
// explicitly, so that experiments are reproducible bit-for-bit.  The core
// generator is SplitMix64 (fast, decent quality, trivially seedable); the
// class layers the distributions the platform needs on top: uniform,
// gaussian, dirichlet and permutations.
#pragma once

#include <cstdint>
#include <vector>

namespace mhbench {

// SplitMix64's state increment (the 64-bit golden-ratio constant).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

// SplitMix64's output finalizer (Steele, Lea, Flood 2014): a bijective
// 64-bit mixer.  Rng::NextU64 applies it to each state step; stateless
// hashes (obs::JournalSampleClient) apply it to a key derived from their
// inputs.
constexpr std::uint64_t SplitMix64Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  // Returns the next raw 64-bit value (SplitMix64).
  std::uint64_t NextU64();

  // Uniform in [0, 1).
  double Uniform();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  // Standard normal via Box-Muller (cached pair).
  double Gaussian();
  double Gaussian(double mean, double stddev);

  // Gamma(shape, 1) via Marsaglia-Tsang; used by Dirichlet.
  double Gamma(double shape);

  // Dirichlet(alpha, ..., alpha) of dimension `k`.  Requires alpha > 0.
  std::vector<double> Dirichlet(double alpha, int k);

  // Random permutation of [0, n).
  std::vector<int> Permutation(int n);

  // Samples `k` distinct values from [0, n) (k <= n), in random order.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Derives an independent child generator; `stream` distinguishes children
  // of the same parent state.  Note Fork advances the parent (it consumes
  // one NextU64), which is what makes the stream position checkpointable:
  // restoring a saved State replays subsequent forks identically.
  Rng Fork(std::uint64_t stream);

  // Checkpointing: the complete generator state — the SplitMix64 position
  // plus the Box-Muller gaussian cache.  Restoring a saved State resumes
  // the stream bit-identically.
  struct State {
    std::uint64_t state = 0;
    bool have_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };
  State SaveState() const {
    return {state_, have_cached_gaussian_, cached_gaussian_};
  }
  void RestoreState(const State& s) {
    state_ = s.state;
    have_cached_gaussian_ = s.have_cached_gaussian;
    cached_gaussian_ = s.cached_gaussian;
  }

 private:
  std::uint64_t state_;
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace mhbench
