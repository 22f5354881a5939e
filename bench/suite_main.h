// Shared driver for the figure-shaped benches (Figures 4, 5, 6): run every
// MHFL algorithm plus the effectiveness baseline on each task under one
// constraint case, print the paper's 2x2 metric panel and accuracy curves,
// and write a CSV into MHB_CSV_DIR (default: the working directory) with
// WriteFigureCsv, which Figures 7-9 share.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "bench_support/experiment.h"
#include "core/bytes.h"
#include "core/env.h"
#include "metrics/report.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::benchmain {

inline std::vector<std::string> MhflAlgorithms() {
  std::vector<std::string> names;
  for (const auto& info : algorithms::AllAlgorithms()) {
    if (info.name != "fedavg") names.push_back(info.name);
  }
  return names;
}

// Writes a figure's bundles to <MHB_CSV_DIR, default .>/<name>.csv; throws
// Error naming the path when the write fails.
inline void WriteFigureCsv(const std::string& name,
                           const std::vector<metrics::MetricBundle>& bundles) {
  const std::string path = EnvString("MHB_CSV_DIR", ".") + "/" + name + ".csv";
  WriteFileAtomic(path, metrics::ToCsv(bundles));
  std::printf("[csv written to %s]\n", path.c_str());
}

inline int RunConstraintFigure(const std::string& figure_id,
                               const std::string& title,
                               const std::string& constraint,
                               const std::vector<std::string>& tasks) {
  std::printf("%s: %s\n", figure_id.c_str(), title.c_str());
  std::printf(
      "(fast preset; scale with MHB_ROUNDS / MHB_CLIENTS / MHB_TRAIN / "
      "MHB_REPEATS)\n\n");

  // MHB_OBS_DIR=<dir> makes every figure emit telemetry: a run manifest
  // (manifest.json + per-round rounds.csv) and a Chrome trace per task
  // (wall-clock and simulated-clock lanes), under <dir>/<figure_id>-<task>/.
  const std::string obs_dir = EnvString("MHB_OBS_DIR", "");

  std::vector<metrics::MetricBundle> all;
  for (const auto& task : tasks) {
    bench_support::SuiteOptions options;
    options.constraint = constraint;
    options.task = task;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::Registry> registry;
    if (!obs_dir.empty()) {
      tracer = std::make_unique<obs::Tracer>();
      registry = std::make_unique<obs::Registry>();
      options.obs.tracer = tracer.get();
      options.obs.registry = registry.get();
    }
    const auto bundles =
        bench_support::RunSuite(MhflAlgorithms(), options);
    std::fputs(
        metrics::RenderMetricPanel(constraint + " / " + task, bundles)
            .c_str(),
        stdout);
    std::fputs(
        metrics::RenderCurves("accuracy curves: " + task, bundles).c_str(),
        stdout);
    std::puts("");
    if (!obs_dir.empty()) {
      obs::RunManifest m;
      m.run_id = figure_id + "-" + task;
      m.tool = figure_id;
      m.git_describe = obs::GitDescribe();
      m.created_utc = obs::IsoTimestampUtc();
      m.seed = options.preset.seed;
      m.threads = options.preset.threads;
      m.config = {{"constraint", constraint},
                  {"task", task},
                  {"rounds", std::to_string(options.preset.rounds)},
                  {"clients", std::to_string(options.preset.clients)}};
      for (const auto& b : bundles) {
        m.metrics.emplace_back(b.algorithm + ".global_accuracy",
                               b.global_accuracy);
      }
      const std::string run_dir =
          obs::WriteRunManifest(obs_dir, m, registry.get());
      WriteFileAtomic(run_dir + "/trace.json", tracer->ToChromeJson());
      WriteFileAtomic(run_dir + "/trace.jsonl", tracer->ToJsonl());
      std::printf("[telemetry written to %s]\n", run_dir.c_str());
    }
    all.insert(all.end(), bundles.begin(), bundles.end());
  }

  WriteFigureCsv(figure_id, all);
  return 0;
}

}  // namespace mhbench::benchmain
