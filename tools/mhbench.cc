// PracMHBench command-line interface.
//
//   mhbench list
//       Enumerate algorithms (with heterogeneity level), tasks and devices.
//   mhbench cost --model resnet101 --algorithm sheterofl --ratio 0.5
//                [--device jetson-nano]
//       Query the calibrated cost model for one variant.
//   mhbench plan --task cifar100 --constraint memory [--algorithm sheterofl]
//                [--clients 12] [--seed 11]
//       Print the per-client model assignment a constraint case produces.
//       --constraint names one case: computation, communication, memory,
//       comm+mem or comp+comm+mem.  run also takes none (capacities split
//       proportionally over the ratio ladder, no device constraint).
//   mhbench run --task cifar10 --algorithm sheterofl
//               [--constraint computation] [--rounds 20] [--clients 10]
//               [--alpha 0.5] [--deadline 0] [--seed 1] [--threads 1]
//               [--client-journal-sample R]
//               [--trace out.json]
//               [--manifest-dir results] [--profile 0|1]
//               [--checkpoint-every N] [--checkpoint-dir checkpoints]
//               [--resume checkpoints/round_000002.mhbsnap]
//               [--det-audit path|1]
//       Run one federated experiment and print the metric panel.
//       --threads parallelizes client training, global and stability
//       evaluation and Fed-ET's distillation teachers; results are
//       bit-identical for any thread count.  The kernel ISA follows
//       MHB_KERNELS (see README).
//       --trace writes a Chrome-tracing JSON (open in chrome://tracing or
//       https://ui.perfetto.dev) plus a .jsonl event log next to it, with
//       a wall-clock lane per thread and a simulated-clock lane per client.
//       --manifest-dir writes results/<run-id>/manifest.json + rounds.csv
//       + tiers.csv (per-device-tier rollups) + clients.mhbj (the bounded
//       client event journal; `tools/mhb_journal.py csv` converts it to
//       the legacy clients.csv) capturing config, seed, git revision and
//       per-round telemetry (counters, gauges, histogram quantiles).
//       --client-journal-sample R (default 1.0) journals a deterministic
//       seed-hashed fraction R of clients — the same subset at any
//       --threads (DESIGN.md §5j).
//       --profile enables the per-op profiler (profile.json in the run
//       dir); defaults to on when --manifest-dir is set.
//       --checkpoint-every N snapshots engine + algorithm + RNG + obs
//       state to --checkpoint-dir after every N-th round; --resume
//       restores one snapshot and continues — with the same config the
//       resumed run is bit-identical to the uninterrupted one (see
//       DESIGN.md §5g).
//       Every --manifest-dir run also publishes metrics.prom (Prometheus
//       text exposition, the node_exporter textfile-collector format) and
//       status.json into its run directory after each round, written
//       atomically on the round barrier; `tools/mhb_watch.py --dir` renders
//       them as a terminal progress view.  Publishing cannot perturb
//       results (DESIGN.md §5h).
//       --det-audit <path|1> writes a per-round determinism ledger
//       (det_audit.jsonl): one 64-bit hash per component (RNG stream,
//       model/algorithm state bytes, counter and histogram totals) plus a
//       running chain, at every round barrier.  "1" places the ledger in
//       the --manifest-dir run directory.  `tools/mhb_bisect.py` diffs two
//       ledgers and names the first divergent round and component
//       (DESIGN.md §5k).  Read-only over engine state: attaching it leaves
//       results, manifests and journals bit-identical.
//
// Every command also accepts --log-level <silent|error|warn|info|debug|
// trace|0-5>, mirroring the MHB_LOG_LEVEL environment variable (the flag
// wins when both are given).  A flag the command does not read is an
// error, so a typo such as --thread fails instead of running defaults.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "bench_support/experiment.h"
#include "constraints/assignment.h"
#include "core/bytes.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/table.h"
#include "device/calibration.h"
#include "device/cost_model.h"
#include "device/ima_fleet.h"
#include "metrics/report.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/journal.h"
#include "obs/live.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/gemm.h"

namespace {

using namespace mhbench;

// Minimal --key value parser.  Every Get* marks its key as read, and
// RejectUnused() throws for any key nothing read.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      MHB_CHECK(std::strncmp(argv[i], "--", 2) == 0)
          << "expected --flag, got" << argv[i];
      values_[argv[i] + 2] = argv[i + 1];
    }
    MHB_CHECK((argc - first) % 2 == 0) << "flag without value";
  }

  std::string Get(const std::string& key, const std::string& fallback) {
    const std::string* v = Find(key);
    return v == nullptr ? fallback : *v;
  }
  double GetD(const std::string& key, double fallback) {
    return Parse(key, fallback, "a number");
  }
  int GetI(const std::string& key, int fallback) {
    return Parse(key, fallback, "an integer");
  }

  // Called by each command once it has read all of its flags.
  void RejectUnused() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        throw Error("unknown flag --" + key + " for this command");
      }
    }
  }

 private:
  // The whole value must parse: "abc" and "1x" both throw.
  template <typename T>
  T Parse(const std::string& key, T fallback, const char* kind) {
    const std::string* v = Find(key);
    if (v == nullptr) return fallback;
    T out{};
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, out);
    if (ec != std::errc() || ptr != end) {
      throw Error("--" + key + " expects " + kind + ", got '" + *v + "'");
    }
    return out;
  }

  const std::string* Find(const std::string& key) {
    used_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

const char* LevelName(algorithms::HeteroLevel level) {
  switch (level) {
    case algorithms::HeteroLevel::kHomogeneous:
      return "baseline";
    case algorithms::HeteroLevel::kWidth:
      return "width";
    case algorithms::HeteroLevel::kDepth:
      return "depth";
    case algorithms::HeteroLevel::kTopology:
      return "topology";
  }
  return "?";
}

int CmdList(const Args& args) {
  args.RejectUnused();
  std::puts("Algorithms:");
  AsciiTable algos({"Name", "Level"});
  for (const auto& info : algorithms::AllAlgorithms()) {
    algos.AddRow({info.name, LevelName(info.level)});
  }
  std::fputs(algos.Render().c_str(), stdout);

  std::puts("Tasks:");
  AsciiTable tasks({"Name", "Classes", "Primary model"});
  for (const auto& name : models::AllTaskNames()) {
    tasks.AddRow({name, std::to_string(models::TaskNumClasses(name)),
                  models::MakeTaskModels(name).primary->name()});
  }
  std::fputs(tasks.Render().c_str(), stdout);

  std::puts("Devices: jetson-orin-nx, jetson-tx2-nx, jetson-nano,");
  std::puts("         raspberry-pi-4b (see `mhbench cost --device ...`)");
  std::puts("Constraints: none, computation, communication, memory,");
  std::puts("             comm+mem, comp+comm+mem");
  return 0;
}

int CmdCost(Args& args) {
  const std::string model = args.Get("model", "resnet101");
  const std::string algorithm = args.Get("algorithm", "sheterofl");
  const double ratio = args.GetD("ratio", 1.0);
  const std::string device_name = args.Get("device", "jetson-nano");
  const double bandwidth_mbps = args.GetD("bandwidth", 20.0);
  args.RejectUnused();

  device::DeviceProfile dev;
  dev.name = device_name;
  dev.gflops = device::DeviceGflops(device_name);
  dev.bandwidth_mbps = bandwidth_mbps;

  device::CostModel cm(device::PaperDesc(model));
  const auto cost = cm.Cost(algorithm, ratio, dev);
  std::printf("%s x%.2f under %s on %s:\n", model.c_str(), ratio,
              algorithm.c_str(), device_name.c_str());
  std::printf("  parameters : %.2f M\n", cost.params_m);
  std::printf("  fwd GFLOPs : %.3f per sample\n", cost.gflops_fwd);
  std::printf("  train time : %.1f s per round\n", cost.train_time_s);
  std::printf("  memory     : %.0f MB\n", cost.memory_mb);
  std::printf("  comm       : %.1f MB (%.1f s at %.0f Mbps)\n", cost.comm_mb,
              cost.comm_time_s, dev.bandwidth_mbps);
  return 0;
}

int CmdPlan(Args& args) {
  const std::string task = args.Get("task", "cifar100");
  const std::string constraint = args.Get("constraint", "computation");
  const std::string algorithm = args.Get("algorithm", "sheterofl");

  device::FleetConfig fcfg;
  fcfg.num_clients = args.GetI("clients", 12);
  fcfg.seed = static_cast<std::uint64_t>(args.GetI("seed", 11));
  args.RejectUnused();
  const device::Fleet fleet = device::SampleFleet(fcfg);

  if (constraint == "none") {
    throw Error("plan: --constraint none has no device constraint to plan "
                "for (run assigns its capacities proportionally)");
  }
  const auto built = constraints::BuildConstrained(
      algorithm, task, fleet, constraints::ParseConstraintCase(constraint));
  std::printf("%s / %s / %s (deadline %.1f s)\n", task.c_str(),
              constraint.c_str(), algorithm.c_str(),
              built.compute_deadline_s);
  AsciiTable table({"Client", "GFLOP/s", "Mem budget", "Capacity", "Arch",
                    "Compute s", "Comm s"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& a = built.assignments[i];
    table.AddRow({std::to_string(i), AsciiTable::Num(fleet[i].gflops, 2),
                  AsciiTable::Num(fleet[i].memory_mb, 0),
                  "x" + AsciiTable::Num(a.capacity, 2),
                  std::to_string(a.arch_index),
                  AsciiTable::Num(a.system.compute_time_s, 1),
                  AsciiTable::Num(a.system.comm_time_s, 1)});
  }
  std::fputs(table.Render().c_str(), stdout);
  return 0;
}

int CmdRun(Args& args) {
  bench_support::SuiteOptions options;
  options.task = args.Get("task", "cifar10");
  options.constraint = args.Get("constraint", "computation");
  options.dirichlet_alpha = args.GetD("alpha", 0.0);
  options.round_deadline_s = args.GetD("deadline", 0.0);
  options.preset.rounds = args.GetI("rounds", options.preset.rounds);
  options.preset.clients = args.GetI("clients", options.preset.clients);
  options.preset.seed =
      static_cast<std::uint64_t>(args.GetI("seed", 1));
  options.preset.threads = args.GetI("threads", options.preset.threads);

  options.checkpoint_every = args.GetI("checkpoint-every", 0);
  options.checkpoint_dir = args.Get("checkpoint-dir", "checkpoints");
  options.resume_path = args.Get("resume", "");

  const std::string algorithm = args.Get("algorithm", "sheterofl");
  const std::string trace_path = args.Get("trace", "");
  const std::string manifest_dir = args.Get("manifest-dir", "");
  const bool profile = args.GetI("profile", manifest_dir.empty() ? 0 : 1) != 0;
  const double journal_sample = args.GetD("client-journal-sample", 1.0);
  std::string det_audit_path = args.Get("det-audit", "");
  args.RejectUnused();

  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Profiler> profiler;
  if (!trace_path.empty()) tracer = std::make_unique<obs::Tracer>();
  if (!trace_path.empty() || !manifest_dir.empty() ||
      options.checkpoint_every > 0) {
    // Checkpointing keeps a registry even without --manifest-dir so
    // snapshots carry the obs section (resumed manifests then report
    // whole-campaign totals).
    registry = std::make_unique<obs::Registry>();
  }
  if (profile) profiler = std::make_unique<obs::Profiler>();
  options.obs.tracer = tracer.get();
  options.obs.registry = registry.get();
  options.obs.profiler = profiler.get();
  MHB_LOG_INFO << "obs config: trace="
               << (tracer != nullptr ? trace_path : "off")
               << " manifest_dir="
               << (manifest_dir.empty() ? "off" : manifest_dir)
               << " profiler=" << (profile ? "on" : "off");

  // The run directory is created up front (not only at exit) so the
  // per-round files land in the same place WriteRunManifest finalizes at
  // the end.
  const std::string run_id = options.task + "-" + options.constraint + "-" +
                             algorithm + "-seed" +
                             std::to_string(options.preset.seed);
  std::string run_dir;
  if (!manifest_dir.empty()) {
    run_dir = (std::filesystem::path(manifest_dir) /
               obs::SanitizeRunId(run_id))
                  .string();
    std::error_code ec;
    std::filesystem::create_directories(run_dir, ec);
    MHB_CHECK(!ec) << "cannot create run dir" << run_dir;
    if (registry != nullptr) {
      // Stream rounds.csv + tiers.csv per completed round: killed runs keep
      // partial per-round artifacts.  Each round's lines are appended, or
      // the file rewritten whole when the round brings a new column (a
      // tailing reader may see an unterminated last line mid-append); the
      // end-of-run manifest finds the files current and leaves them.
      // metrics.prom + status.json are replaced whole each round (live
      // telemetry, DESIGN.md §5h).
      obs::Registry* reg = registry.get();
      const int rounds_total = options.preset.rounds;
      registry->SetRoundSink([reg, run_dir, run_id, rounds_total](
                                 const obs::Registry::RoundRow& /*row*/) {
        obs::WriteRoundsCsv(run_dir, *reg);
        obs::WriteTiersCsv(run_dir, *reg);
        obs::WriteLiveFiles(run_dir, *reg, run_id, rounds_total);
      });
    }
  }

  // Bounded-memory client event journal (obs/journal.h): the registry
  // drains each round's client rows into clients.mhbj at the barrier
  // instead of retaining them for the whole run.
  std::unique_ptr<obs::ClientJournalWriter> journal;
  if (!run_dir.empty() && registry != nullptr) {
    obs::ClientJournalWriter::Options jopts;
    jopts.sample_rate = journal_sample;
    jopts.sample_seed = options.preset.seed;
    journal = std::make_unique<obs::ClientJournalWriter>(
        run_dir + "/clients.mhbj", jopts);
    obs::ClientJournalWriter* jw = journal.get();
    registry->SetClientRowSink(
        [jw](std::vector<obs::Registry::ClientRow>&& rows) {
          jw->Append(rows);
        });
  }

  // Determinism divergence auditor (obs/det_audit.h, DESIGN.md §5k).
  // "--det-audit 1" resolves to the run directory; any other value is the
  // ledger path itself.
  std::unique_ptr<obs::DetAuditor> det_audit;
  if (det_audit_path == "1" || det_audit_path == "true") {
    if (run_dir.empty()) {
      MHB_LOG_WARN << "--det-audit 1 needs --manifest-dir for the "
                      "det_audit.jsonl destination; disabling audit";
      det_audit_path.clear();
    } else {
      det_audit_path = run_dir + "/det_audit.jsonl";
    }
  } else if (det_audit_path == "0" || det_audit_path == "false") {
    det_audit_path.clear();
  }
  if (!det_audit_path.empty()) {
    det_audit = std::make_unique<obs::DetAuditor>(det_audit_path);
    det_audit->WriteHeader(algorithm, options.preset.seed,
                           options.preset.rounds, options.preset.threads);
    options.obs.det_audit = det_audit.get();
    MHB_LOG_INFO << "det-audit ledger: " << det_audit_path;
  }

  std::printf("running %s on %s under %s-limited MHFL (%d rounds, %d "
              "clients)...\n",
              algorithm.c_str(), options.task.c_str(),
              options.constraint.c_str(), options.preset.rounds,
              options.preset.clients);
  std::fflush(stdout);

  const auto bundles = bench_support::RunSuite({algorithm}, options);
  if (!run_dir.empty()) {
    // Once more after the run: the last round's checkpoint write adds its
    // checkpoint_* counts after the last round sink has published.
    obs::WriteLiveFiles(run_dir, *registry, run_id, options.preset.rounds);
  }
  if (registry != nullptr) {
    registry->SetRoundSink(nullptr);
    registry->SetClientRowSink(nullptr);
  }
  if (journal != nullptr) {
    journal->Close();
    MHB_LOG_INFO << "client journal: " << journal->blocks_written()
                 << " blocks, " << journal->records_written()
                 << " records, peak block buffer "
                 << journal->peak_block_bytes() << " bytes";
  }
  std::fputs(metrics::RenderMetricPanel(
                 options.constraint + " / " + options.task, bundles)
                 .c_str(),
             stdout);
  std::fputs(metrics::RenderCurves("accuracy curve", bundles).c_str(),
             stdout);

  if (tracer != nullptr) {
    WriteFileAtomic(trace_path, tracer->ToChromeJson());
    // Event log next to the Chrome trace: out.json -> out.jsonl.
    std::string jsonl = trace_path;
    const std::string suffix = ".json";
    if (jsonl.size() >= suffix.size() &&
        jsonl.compare(jsonl.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      jsonl += "l";
    } else {
      jsonl += ".jsonl";
    }
    WriteFileAtomic(jsonl, tracer->ToJsonl());
    std::printf("[trace written to %s + %s]\n", trace_path.c_str(),
                jsonl.c_str());
  }
  if (!manifest_dir.empty()) {
    obs::RunManifest m;
    m.run_id = run_id;
    m.tool = "mhbench run";
    m.git_describe = obs::GitDescribe();
    m.created_utc = obs::IsoTimestampUtc();
    m.seed = options.preset.seed;
    m.threads = options.preset.threads;
    m.config = {
        {"task", options.task},
        {"constraint", options.constraint},
        {"algorithm", algorithm},
        {"rounds", std::to_string(options.preset.rounds)},
        {"clients", std::to_string(options.preset.clients)},
        {"dirichlet_alpha", std::to_string(options.dirichlet_alpha)},
        {"round_deadline_s", std::to_string(options.round_deadline_s)},
        // Kernel provenance: which micro-kernel ISA dispatch picked at
        // startup (DESIGN.md §5i).
        {"kernel_backend", kernels::KernelBackendName()},
        {"client_journal_sample", std::to_string(journal_sample)},
    };
    for (const auto& b : bundles) {
      m.metrics.emplace_back(b.algorithm + ".global_accuracy",
                             b.global_accuracy);
      m.metrics.emplace_back(b.algorithm + ".stability_variance",
                             b.stability_variance);
      m.metrics.emplace_back(b.algorithm + ".total_sim_time_s",
                             b.total_sim_time_s);
      m.metrics.emplace_back(b.algorithm + ".straggler_drop_rate",
                             metrics::StragglerDropRate(b));
    }
    const std::string run_dir =
        obs::WriteRunManifest(manifest_dir, m, registry.get(),
                              profiler.get());
    std::printf("[manifest written to %s]\n", run_dir.c_str());
  }
  return 0;
}

int Usage() {
  std::puts("usage: mhbench <list|cost|plan|run> [--flag value ...]");
  std::puts("see the header of tools/mhbench.cc for per-command flags");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    Args args(argc, argv, 2);
    const std::string log_level = args.Get("log-level", "");
    if (!log_level.empty()) {
      mhbench::SetLogLevel(
          mhbench::ParseLogLevel(log_level, mhbench::GetLogLevel()));
    }
    if (cmd == "list") return CmdList(args);
    if (cmd == "cost") return CmdCost(args);
    if (cmd == "plan") return CmdPlan(args);
    if (cmd == "run") return CmdRun(args);
  } catch (const mhbench::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
