// Benchmark presets: fast defaults overridable through MHB_* environment
// variables so the bench suite scales from smoke-test to paper-scale runs
// without recompiling.
#pragma once

#include <cstdint>
#include <string>

namespace mhbench::bench_support {

struct BenchPreset {
  int rounds;
  int clients;
  int train_samples;
  int test_samples;
  double sample_fraction;
  int eval_every;
  int eval_max_samples;
  int stability_max_samples;
  std::uint64_t seed;
  // Threads for client dispatch / stability evaluation (1 = serial; any
  // value yields bit-identical results — see fl::FlConfig::num_threads).
  int threads;
  // Removed option: any non-zero value is rejected (see
  // fl::FlConfig::threaded_gemm).
  int threaded_gemm = 0;
  // Evaluation precision.  Only "f32" exists; RunWith rejects any other
  // value rather than silently running f32.
  std::string eval_precision = "f32";

  // Reads MHB_ROUNDS, MHB_CLIENTS, MHB_TRAIN, MHB_TEST,
  // MHB_SAMPLE_FRACTION, MHB_EVAL_EVERY, MHB_SEED, MHB_THREADS over the
  // fast defaults.
  static BenchPreset FromEnv();
};

}  // namespace mhbench::bench_support
