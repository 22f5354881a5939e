#include "bench_support/presets.h"

#include "core/env.h"

namespace mhbench::bench_support {

BenchPreset BenchPreset::FromEnv() {
  BenchPreset p;
  p.rounds = EnvInt("MHB_ROUNDS", 20);
  p.clients = EnvInt("MHB_CLIENTS", 10);
  p.train_samples = EnvInt("MHB_TRAIN", 400);
  p.test_samples = EnvInt("MHB_TEST", 160);
  p.sample_fraction = EnvDouble("MHB_SAMPLE_FRACTION", 0.3);
  p.eval_every = EnvInt("MHB_EVAL_EVERY", 4);
  p.eval_max_samples = EnvInt("MHB_EVAL_SAMPLES", 200);
  p.stability_max_samples = EnvInt("MHB_STABILITY_SAMPLES", 96);
  p.seed = static_cast<std::uint64_t>(EnvInt("MHB_SEED", 1));
  p.threads = EnvInt("MHB_THREADS", 1);
  return p;
}

}  // namespace mhbench::bench_support
