// Fidelity self-test of the end-to-end benchmark: the decorated replica must
// run the program users run.  For one short config per workload it checks
//   - the replica's results (timing decorator between engine and algorithm,
//     spans recorded) are bit-identical to bench_support::RunOne/RunSuite;
//   - on fleet-obs, the client journal and det-audit ledger bytes are
//     identical with the decorator and without it;
//   - the result fingerprint is the same at 1 and at 4 threads.
// Exits non-zero on the first mismatch.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_support/experiment.h"
#include "timed_algorithm.h"
#include "workload.h"

namespace mhbench::e2e {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

// The bundle fields bench_support fills from one repeat's RunResult.
bool SameAsBundle(const fl::RunResult& r, const metrics::MetricBundle& b) {
  std::vector<double> curve_time, curve_acc;
  for (const auto& rec : r.curve) {
    curve_time.push_back(rec.sim_time_s);
    curve_acc.push_back(rec.global_acc);
  }
  return SameBits(r.final_accuracy, b.global_accuracy) &&
         SameBits(r.StabilityVariance(), b.stability_variance) &&
         SameBits(r.total_sim_time_s, b.total_sim_time_s) &&
         SameBits(r.MeanClientAccuracy(), b.mean_client_accuracy) &&
         r.straggler_drops == b.clients_dropped &&
         r.total_participations == b.clients_selected &&
         SameBits(curve_time, b.curve_time_s) &&
         SameBits(curve_acc, b.curve_accuracy);
}

struct ReplicaOut {
  fl::RunResult result;
  std::optional<Telemetry::Artifacts> artifacts;
};

ReplicaOut RunReplica(const Workload& w, std::size_t index, bool traced,
                      const std::string& dir) {
  std::optional<SpanRecorder> spans;
  if (traced) spans.emplace();
  SpanRecorder* const recorder = spans ? &*spans : nullptr;
  std::optional<Telemetry> telemetry;
  if (w.telemetry) telemetry.emplace(dir, w.runs[index], w.options, recorder);
  std::vector<StageSpan> stages;
  PreparedRun run =
      Prepare(w.runs[index], w.options,
              telemetry ? telemetry->obs() : obs::ObsConfig{}, stages);
  TimedAlgorithm timed(*run.algorithm, recorder);
  fl::FlEngine engine(run.task, run.config, std::move(run.assignments), timed);
  ReplicaOut out;
  out.result = engine.Run();
  if (telemetry) out.artifacts = telemetry->Close();
  if (recorder != nullptr) {
    Expect(!recorder->Merge().empty(), w.runs[index].algorithm + " traced");
  }
  return out;
}

// The short config of a workload: its runs of one task, few rounds.
Workload ShortWorkload(const std::string& name, const std::string& task,
                       int rounds, int threads) {
  Workload w = MakeWorkload(name, /*seed=*/3, threads);
  w.options.preset.rounds = rounds;
  std::vector<EngineRunSpec> runs;
  for (const auto& r : w.runs) {
    if (r.task == task) runs.push_back(r);
  }
  w.runs = runs;
  w.options.task = task;
  return w;
}

void CheckWorkload(const std::string& name, const std::string& task,
                   int rounds, const std::string& tmp) {
  const Workload w4 = ShortWorkload(name, task, rounds, 4);
  const Workload w1 = ShortWorkload(name, task, rounds, 1);

  // The library's own path, telemetry wired as the CLI wires it.
  std::vector<metrics::MetricBundle> library;
  std::vector<Telemetry::Artifacts> library_artifacts;
  if (name == "ws-grid") {
    std::vector<std::string> algorithms;
    for (const auto& r : w4.runs) {
      if (r.algorithm != "fedavg-small") algorithms.push_back(r.algorithm);
    }
    library = bench_support::RunSuite(algorithms, w4.options);
  } else {
    for (const auto& r : w4.runs) {
      bench_support::SuiteOptions options = w4.options;
      std::optional<Telemetry> telemetry;
      if (w4.telemetry) {
        telemetry.emplace(tmp + "/library", r, w4.options, nullptr);
        options.obs = telemetry->obs();
      }
      library.push_back(bench_support::RunOne(r.algorithm, options));
      if (telemetry) library_artifacts.push_back(telemetry->Close());
    }
  }
  Expect(library.size() == w4.runs.size(), name + ": one bundle per run");

  for (std::size_t i = 0; i < w4.runs.size() && i < library.size(); ++i) {
    const std::string label = name + " " + w4.runs[i].algorithm + "/" + task;
    const ReplicaOut decorated =
        RunReplica(w4, i, /*traced=*/true, tmp + "/decorated");
    Expect(SameAsBundle(decorated.result, library[i]),
           label + ": decorated replica == bench_support");
    if (w4.telemetry) {
      const auto& ledger = decorated.artifacts->ledger;
      Expect(std::count(ledger.begin(), ledger.end(), '\n') == rounds + 1,
             label + ": one ledger row per round after the header");
      Expect(decorated.artifacts->journal == library_artifacts[i].journal,
             label + ": journal bytes identical");
      Expect(decorated.artifacts->ledger == library_artifacts[i].ledger,
             label + ": det-audit ledger bytes identical");
    }
    const ReplicaOut serial =
        RunReplica(w1, i, /*traced=*/false, tmp + "/serial");
    const auto* a4 = decorated.artifacts ? &*decorated.artifacts : nullptr;
    const auto* a1 = serial.artifacts ? &*serial.artifacts : nullptr;
    Expect(Fingerprint(decorated.result, a4) == Fingerprint(serial.result, a1),
           label + ": fingerprint at 1 thread == at 4 threads");
  }
}

}  // namespace
}  // namespace mhbench::e2e

int main(int argc, char** argv) {
  // bench_support reads MHB_REPEATS; the replica reproduces one repeat.
  unsetenv("MHB_REPEATS");
  const std::string tmp = argc > 1 ? argv[1] : "fidelity_tmp";
  try {
    mhbench::e2e::CheckWorkload("ws-grid", "harbox", 2, tmp);
    mhbench::e2e::CheckWorkload("distill-eval", "agnews", 2, tmp);
    mhbench::e2e::CheckWorkload("fleet-obs", "ucihar", 6, tmp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fidelity_test: %s\n", e.what());
    return 1;
  }
  std::filesystem::remove_all(tmp);
  std::printf("%d failure(s)\n", mhbench::e2e::g_failures);
  return mhbench::e2e::g_failures == 0 ? 0 : 1;
}
