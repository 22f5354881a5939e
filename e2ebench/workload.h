// Workloads of the end-to-end benchmark, and the engine-run replica that
// the benchmark program and its fidelity test share.
//
// The replica builds each engine run from the library's public functions
// in the order bench_support::RunOne / RunSuite use (data::MakeTask,
// device::SampleFleet, constraints::Build*Limited, models::MakeTaskModels,
// algorithms::MakeAlgorithm, fl::FlEngine), so the benchmark can put a
// timing decorator between the engine and the algorithm while running the
// same arithmetic; fidelity_test.cc checks that the results are
// bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/experiment.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/journal.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "timed_algorithm.h"

namespace mhbench::e2e {

// One engine run of a workload.  "fedavg-small" is RunSuite's
// effectiveness baseline: FedAvg at the smallest capacity the constraint
// assigns to any client.
struct EngineRunSpec {
  std::string algorithm;
  std::string task;
};

struct Workload {
  std::string name;
  // Constraint, preset and fleet seed; `options.task` is unused (each run
  // names its own task).
  bench_support::SuiteOptions options;
  std::vector<EngineRunSpec> runs;
  // Program telemetry on (registry, profiler, streamed CSVs, client
  // journal, det-audit ledger), as fleet-obs runs it.
  bool telemetry = false;
};

// The named workload ("ws-grid", "distill-eval" or "fleet-obs") with `seed`
// as its input seed, run on `threads` engine threads.  The seed reaches the
// program only through the config seeds RunOne derives from the preset
// seed and the fleet seed.  Throws mhbench::Error for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int threads);

// Setup stages of one engine run, in call order.
enum class Stage : std::uint8_t {
  kMakeTask,
  kSampleFleet,
  kAssign,
  kModels,
  kPartition,
};
// Per-layer metric stem of a stage, e.g. "data.make_task".
const char* StageName(Stage stage);

struct StageSpan {
  Stage stage = Stage::kMakeTask;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Everything an fl::FlEngine needs for one run.
struct PreparedRun {
  data::Task task;
  models::TaskModels models;
  std::unique_ptr<fl::MhflAlgorithm> algorithm;
  std::vector<fl::ClientAssignment> assignments;
  fl::FlConfig config;
};

// Builds `spec` under `options` as bench_support's first repeat does,
// appending the MakeTask, SampleFleet, Build*Limited and model/algorithm
// construction stages to `stages`.  `obs` is the run's telemetry (may be
// all-null).
PreparedRun Prepare(const EngineRunSpec& spec,
                    const bench_support::SuiteOptions& options,
                    const obs::ObsConfig& obs,
                    std::vector<StageSpan>& stages);

// Program telemetry of one engine run, wired the way
// `mhbench run --manifest-dir DIR --det-audit 1` wires it.  With a non-null
// recorder the round sink and the client-row sink are timed into it.
class Telemetry {
 public:
  // Files land in `manifest_dir`/<run id>/, named as the CLI names them.
  Telemetry(const std::string& manifest_dir, const EngineRunSpec& spec,
            const bench_support::SuiteOptions& options, SpanRecorder* spans);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const obs::ObsConfig& obs() const { return obs_; }

  struct Artifacts {
    std::vector<std::uint8_t> journal;  // clients.mhbj
    std::vector<std::uint8_t> ledger;   // det_audit.jsonl
  };
  // Uninstalls the sinks, closes the journal and the ledger, and returns
  // their bytes.
  Artifacts Close();
  // Writes manifest.json (+ final rounds.csv, tiers.csv, profile.json) the
  // way the CLI does at the end of a run.  Call after Close.
  void WriteManifest(const std::vector<std::pair<std::string, double>>&
                         metrics) const;

 private:
  const std::string manifest_dir_;
  const EngineRunSpec spec_;
  const bench_support::SuiteOptions options_;
  const std::string run_id_;
  const std::string run_dir_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::ClientJournalWriter> journal_;
  std::unique_ptr<obs::DetAuditor> ledger_;
  obs::ObsConfig obs_;
};

// Hash of a run's results: the bits of the curve, final_accuracy,
// client_accuracies and the run counters, plus the artifact bytes when
// given.  The ledger's first line (run metadata that names the thread
// count) is left out, so the fingerprint is the same at any thread count.
std::uint64_t Fingerprint(const fl::RunResult& result,
                          const Telemetry::Artifacts* artifacts);

// True when every number in the result is finite and every accuracy lies
// in [0, 1].
bool ResultSane(const fl::RunResult& result);

}  // namespace mhbench::e2e
