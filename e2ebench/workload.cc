#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "algorithms/registry.h"
#include "constraints/combined.h"
#include "constraints/computation_limited.h"
#include "core/error.h"
#include "device/ima_fleet.h"
#include "obs/manifest.h"
#include "tensor/gemm.h"

namespace mhbench::e2e {
namespace {

constexpr const char* kBaseline = "fedavg-small";

bench_support::SuiteOptions BaseOptions(std::uint64_t seed, int threads) {
  bench_support::SuiteOptions o;
  o.preset.seed = seed;
  // The device fleet is part of the workload, not of its seed: RunOne's
  // default fleet (seed 11) for every seed.  A per-seed fleet moves the
  // capacity mix, and with it the training FLOPs, by about 6% between
  // seeds, which would swamp the run-time bounds.
  o.fleet_seed = 11;
  o.preset.threads = threads;
  o.preset.threaded_gemm = 0;
  o.preset.eval_precision = "f32";
  o.preset.test_samples = 160;
  o.preset.eval_max_samples = 200;
  o.preset.stability_max_samples = 96;
  return o;
}

constraints::BuiltAssignments Assign(const std::string& algorithm,
                                     const std::string& task,
                                     const std::string& constraint,
                                     const device::Fleet& fleet,
                                     const std::vector<double>& ladder) {
  constraints::ConstraintOptions copts;
  copts.ratio_ladder = ladder;
  if (constraint == "computation") {
    return constraints::BuildComputationLimited(algorithm, task, fleet, copts);
  }
  if (constraint == "comp+comm+mem") {
    return constraints::BuildCompCommMemLimited(algorithm, task, fleet, copts);
  }
  throw Error("constraint not used by any workload: " + constraint);
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MHB_CHECK(in.good()) << "cannot read" << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int threads) {
  Workload w;
  w.name = name;
  w.options = BaseOptions(seed, threads);
  bench_support::BenchPreset& p = w.options.preset;
  if (name == "ws-grid") {
    // Seven runs per task x 5 rounds = 105 rounds; a cohort of 8 of 24
    // clients keeps the 4-thread dispatch busy, and 50 samples per client
    // (against 48 per client in the stability eval) make local training
    // the bulk of the work.
    w.options.constraint = "computation";
    p.rounds = 5;
    p.clients = 24;
    p.train_samples = 1200;
    p.stability_max_samples = 48;
    p.sample_fraction = 1.0 / 3.0;
    p.eval_every = 5;
    for (const char* task : {"cifar10", "agnews", "harbox"}) {
      for (const char* algorithm :
           {kBaseline, "fjord", "sheterofl", "fedrolex", "depthfl",
            "inclusivefl", "fedepth"}) {
        w.runs.push_back({algorithm, task});
      }
    }
  } else if (name == "distill-eval") {
    // Six runs x 17 rounds = 102 rounds.  Local training (30 samples per
    // client) stays a minority next to Fed-ET's serial distillation and the
    // global/client eval paths, yet trains enough that the mean accuracy
    // moves by ~10% rather than ~16% between seeds.
    w.options.constraint = "computation";
    p.rounds = 17;
    p.clients = 16;
    p.train_samples = 480;
    p.stability_max_samples = 64;
    p.sample_fraction = 1.0 / 3.0;
    p.eval_every = 4;
    for (const char* task : {"cifar10", "stackoverflow", "agnews"}) {
      for (const char* algorithm : {"fedet", "fedproto"}) {
        w.runs.push_back({algorithm, task});
      }
    }
  } else if (name == "fleet-obs") {
    // A tiny HAR model over a large fleet: per-round serial work (masked
    // aggregation of ~60 updates, telemetry sinks, det-audit SaveState)
    // weighs as much as the kernels.  Five samples per user leave almost
    // no user empty, so the client count barely moves between seeds.
    w.options.constraint = "comp+comm+mem";
    p.rounds = 200;
    p.clients = 120;
    p.train_samples = 600;
    p.sample_fraction = 0.5;
    p.eval_every = 4;
    w.runs.push_back({"sheterofl", "ucihar"});
    w.telemetry = true;
  } else {
    throw Error("unknown workload: " + name +
                " (want ws-grid, distill-eval or fleet-obs)");
  }
  return w;
}

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kMakeTask:
      return "data.make_task";
    case Stage::kSampleFleet:
      return "device.sample_fleet";
    case Stage::kAssign:
      return "constraints.assign";
    case Stage::kModels:
      return "models.build";
    case Stage::kPartition:
      return "fl.partition";
  }
  return "?";
}

PreparedRun Prepare(const EngineRunSpec& spec,
                    const bench_support::SuiteOptions& options,
                    const obs::ObsConfig& obs,
                    std::vector<StageSpan>& stages) {
  const bench_support::BenchPreset& p = options.preset;
  const bool baseline = spec.algorithm == kBaseline;
  const std::string algorithm = baseline ? "fedavg" : spec.algorithm;
  auto timed = [&stages](Stage stage, auto&& fn) {
    const std::int64_t start = NowNs();
    fn();
    stages.push_back({stage, start, NowNs()});
  };

  PreparedRun run;
  timed(Stage::kMakeTask, [&] {
    data::TaskConfig tcfg;
    tcfg.train_samples = p.train_samples;
    tcfg.test_samples = p.test_samples;
    tcfg.num_clients = p.clients;
    tcfg.seed = p.seed;
    run.task = data::MakeTask(spec.task, tcfg);
  });

  device::Fleet fleet;
  timed(Stage::kSampleFleet, [&] {
    device::FleetConfig fcfg;
    fcfg.num_clients = p.clients;
    fcfg.seed = options.fleet_seed;
    fleet = device::SampleFleet(fcfg);
  });

  double fedavg_ratio = 1.0;
  timed(Stage::kAssign, [&] {
    std::vector<double> ladder = algorithms::RatioLadder();
    if (baseline) {
      // RunSuite samples this same fleet (same config) once more for the
      // minimum-capacity search; reusing it gives identical assignments.
      double min_ratio = 1.0;
      for (const auto& a :
           Assign("fedavg", spec.task, options.constraint, fleet, ladder)
               .assignments) {
        min_ratio = std::min(min_ratio, a.capacity);
      }
      ladder = {min_ratio};
      fedavg_ratio = min_ratio;
    }
    run.assignments =
        Assign(algorithm, spec.task, options.constraint, fleet, ladder)
            .assignments;
  });

  timed(Stage::kModels, [&] {
    run.models = models::MakeTaskModels(spec.task);
    algorithms::AlgorithmOptions aopts;
    aopts.fedavg_ratio = fedavg_ratio;
    aopts.seed = p.seed;
    run.algorithm = algorithms::MakeAlgorithm(algorithm, run.models, aopts);
  });

  fl::FlConfig& c = run.config;
  c.rounds = p.rounds;
  c.sample_fraction = p.sample_fraction;
  c.eval_every = p.eval_every;
  c.eval_max_samples = p.eval_max_samples;
  c.stability_max_samples = p.stability_max_samples;
  c.seed = p.seed;
  c.num_threads = p.threads;
  c.threaded_gemm = p.threaded_gemm != 0;
  MHB_CHECK(p.eval_precision == "f32") << "workloads evaluate in f32";
  MHB_CHECK(options.dirichlet_alpha == 0.0) << "workloads partition IID";
  c.round_deadline_s = options.round_deadline_s;
  c.obs = obs;
  // As in RunSuite: the ledger names one run, never the baseline.
  if (baseline) c.obs.det_audit = nullptr;
  return run;
}

Telemetry::Telemetry(const std::string& manifest_dir,
                     const EngineRunSpec& spec,
                     const bench_support::SuiteOptions& options,
                     SpanRecorder* spans)
    : manifest_dir_(manifest_dir),
      spec_(spec),
      options_(options),
      run_id_(spec.task + "-" + options.constraint + "-" + spec.algorithm +
              "-seed" + std::to_string(options.preset.seed)),
      run_dir_((std::filesystem::path(manifest_dir) /
                obs::SanitizeRunId(run_id_))
                   .string()),
      registry_(std::make_unique<obs::Registry>()),
      profiler_(std::make_unique<obs::Profiler>()) {
  std::filesystem::create_directories(run_dir_);
  obs::Registry* reg = registry_.get();
  const std::string dir = run_dir_;
  registry_->SetRoundSink([reg, dir, spans](const obs::Registry::RoundRow&) {
    const std::int64_t start = NowNs();
    obs::WriteRoundsCsv(dir, *reg);
    obs::WriteTiersCsv(dir, *reg);
    if (spans == nullptr) return;
    const std::int64_t end = NowNs();
    std::error_code ec;
    std::int64_t bytes = 0;
    for (const char* file : {"/rounds.csv", "/tiers.csv"}) {
      const auto size = std::filesystem::file_size(dir + file, ec);
      if (!ec) bytes += static_cast<std::int64_t>(size);
    }
    spans->Record(SpanKind::kRoundSink, start, end, bytes);
    spans->Record(SpanKind::kBenchCount, end, NowNs());
  });

  obs::ClientJournalWriter::Options jopts;
  jopts.sample_rate = 1.0;
  jopts.sample_seed = options.preset.seed;
  journal_ = std::make_unique<obs::ClientJournalWriter>(
      run_dir_ + "/clients.mhbj", jopts);
  obs::ClientJournalWriter* jw = journal_.get();
  registry_->SetClientRowSink(
      [jw, spans](std::vector<obs::Registry::ClientRow>&& rows) {
        const std::int64_t start = NowNs();
        jw->Append(rows);
        if (spans != nullptr) {
          spans->Record(SpanKind::kJournalAppend, start, NowNs());
        }
      });

  ledger_ = std::make_unique<obs::DetAuditor>(run_dir_ + "/det_audit.jsonl");
  ledger_->WriteHeader(spec.algorithm, options.preset.seed,
                       options.preset.rounds, options.preset.threads);

  obs_.registry = registry_.get();
  obs_.profiler = profiler_.get();
  obs_.det_audit = ledger_.get();
}

Telemetry::Artifacts Telemetry::Close() {
  registry_->SetRoundSink(nullptr);
  registry_->SetClientRowSink(nullptr);
  journal_->Close();
  obs_.det_audit = nullptr;
  ledger_.reset();
  return {ReadFileBytes(run_dir_ + "/clients.mhbj"),
          ReadFileBytes(run_dir_ + "/det_audit.jsonl")};
}

void Telemetry::WriteManifest(
    const std::vector<std::pair<std::string, double>>& metrics) const {
  const bench_support::BenchPreset& p = options_.preset;
  obs::RunManifest m;
  m.run_id = run_id_;
  m.tool = "e2ebench";
  // The benchmark runs from a source checkout that need not be a git
  // repository, so obs::GitDescribe's subprocess is not spawned.
  m.git_describe = "unknown";
  m.created_utc = obs::IsoTimestampUtc();
  m.seed = p.seed;
  m.threads = p.threads;
  m.config = {
      {"task", spec_.task},
      {"constraint", options_.constraint},
      {"algorithm", spec_.algorithm},
      {"rounds", std::to_string(p.rounds)},
      {"clients", std::to_string(p.clients)},
      {"kernel_backend", kernels::KernelBackendName()},
      {"eval_precision", p.eval_precision},
  };
  m.metrics = metrics;
  obs::WriteRunManifest(manifest_dir_, m, registry_.get(), profiler_.get());
}

std::uint64_t Fingerprint(const fl::RunResult& result,
                          const Telemetry::Artifacts* artifacts) {
  obs::DetHash h;
  h.UpdateU64(result.curve.size());
  for (const auto& r : result.curve) {
    h.UpdateI64(r.round);
    h.UpdateF64(r.sim_time_s);
    h.UpdateF64(r.global_acc);
  }
  h.UpdateF64(result.final_accuracy);
  h.UpdateF64(result.total_sim_time_s);
  h.UpdateI64(result.straggler_drops);
  h.UpdateI64(result.offline_skips);
  h.UpdateI64(result.total_participations);
  h.UpdateU64(result.client_accuracies.size());
  for (const double a : result.client_accuracies) h.UpdateF64(a);
  if (artifacts != nullptr) {
    h.UpdateU64(artifacts->journal.size());
    h.Update(artifacts->journal.data(), artifacts->journal.size());
    const auto& ledger = artifacts->ledger;
    const auto body = std::find(ledger.begin(), ledger.end(), '\n');
    const std::size_t skip =
        body == ledger.end() ? 0 : static_cast<std::size_t>(
                                       body - ledger.begin() + 1);
    h.UpdateU64(ledger.size() - skip);
    h.Update(ledger.data() + skip, ledger.size() - skip);
  }
  return h.value();
}

bool ResultSane(const fl::RunResult& result) {
  auto accuracy = [](double a) {
    return std::isfinite(a) && a >= 0.0 && a <= 1.0;
  };
  if (!accuracy(result.final_accuracy) ||
      !std::isfinite(result.total_sim_time_s)) {
    return false;
  }
  for (const auto& r : result.curve) {
    if (!accuracy(r.global_acc) || !std::isfinite(r.sim_time_s)) return false;
  }
  return std::all_of(result.client_accuracies.begin(),
                     result.client_accuracies.end(), accuracy);
}
}  // namespace mhbench::e2e
