// End-to-end benchmark program.
//
//   e2e_bench --workload ws-grid|distill-eval|fleet-obs --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// One iteration runs every engine run of the workload once.  After a
// set-up-only warm-up the program repeats iterations until S seconds have
// passed (and at least kMinIterations have run), then prints a readable
// report followed by one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// `attempted` / `failed` count engine runs (runs_attempted / runs_failed).
// A run fails when it throws, when its result is not finite, or when its
// result fingerprint or one of its exact counts differs from the first
// iteration's.
//
// --trace 0 reports the end-to-end metrics, measured with the decorator
// reading only the round-boundary clock.  --trace 1 alternates untraced and
// traced iterations, reports the per-layer metrics of the traced ones plus
// the tracing overhead, and writes the last traced iteration's spans to
// DIR/spans-<workload>-seed<N>.jsonl.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "fl/engine.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"
#include "timed_algorithm.h"
#include "workload.h"

namespace mhbench::e2e {
namespace {

// Engine threads: the 4-core hosts the workloads were sized for.
constexpr int kThreads = 4;
constexpr int kMinIterations = 3;  // per kind (untraced / traced)
constexpr std::size_t kSetupSamples = 15;
constexpr std::int64_t kSetupBudgetNs = 4'000'000'000;

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t Covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// The counts a run must repeat exactly in every iteration.
struct ExactCounts {
  std::uint64_t gemm_flops = 0;
  // Traced iterations only.
  std::int64_t run_client_calls = 0;
  std::int64_t global_logits_calls = 0;
  std::int64_t client_logits_calls = 0;
  std::int64_t save_state_bytes = 0;
  bool operator==(const ExactCounts&) const = default;
};

struct EngineRunRecord {
  bool ok = false;
  std::vector<StageSpan> stages;
  std::int64_t run_start_ns = 0;  // around FlEngine::Run
  std::int64_t run_end_ns = 0;
  std::int64_t setup_ns = 0;  // algorithm Setup, inside Run
  std::vector<std::int64_t> round_starts_ns;
  std::int64_t manifest_start_ns = 0;
  std::int64_t manifest_end_ns = 0;
  std::vector<SpanRec> spans;  // traced iterations only
  int updates = 0;
  double final_accuracy = 0.0;
  std::size_t scratch_peak_bytes = 0;
  std::uint64_t fingerprint = 0;
  ExactCounts counts;

  double run_ns() const {
    return static_cast<double>(run_end_ns - run_start_ns - setup_ns);
  }
};

// One pass over the workload's engine runs.
using Iteration = std::vector<EngineRunRecord>;

EngineRunRecord RunEngine(const Workload& w, std::size_t index, bool traced,
                          const std::string& manifest_dir) {
  const EngineRunSpec& spec = w.runs[index];
  EngineRunRecord rec;
  std::optional<SpanRecorder> spans;
  if (traced) spans.emplace();
  SpanRecorder* const recorder = spans ? &*spans : nullptr;
  std::optional<Telemetry> telemetry;
  if (w.telemetry) telemetry.emplace(manifest_dir, spec, w.options, recorder);

  PreparedRun run = Prepare(spec, w.options,
                            telemetry ? telemetry->obs() : obs::ObsConfig{},
                            rec.stages);
  TimedAlgorithm timed(*run.algorithm, recorder);
  const std::int64_t partition_start = NowNs();
  fl::FlEngine engine(run.task, run.config, std::move(run.assignments), timed);
  rec.stages.push_back({Stage::kPartition, partition_start, NowNs()});

  const std::uint64_t gemm_base = kernels::TotalGemmFlops();
  rec.run_start_ns = NowNs();
  const fl::RunResult result = engine.Run();
  rec.run_end_ns = NowNs();
  rec.counts.gemm_flops = kernels::TotalGemmFlops() - gemm_base;
  rec.scratch_peak_bytes = kernels::ScratchPeakBytesAllThreads();

  std::optional<Telemetry::Artifacts> artifacts;
  if (telemetry) {
    artifacts = telemetry->Close();
    rec.manifest_start_ns = NowNs();
    telemetry->WriteManifest(
        {{spec.algorithm + ".global_accuracy", result.final_accuracy},
         {spec.algorithm + ".stability_variance",
          result.StabilityVariance()},
         {spec.algorithm + ".total_sim_time_s", result.total_sim_time_s}});
    rec.manifest_end_ns = NowNs();
  }

  rec.ok = ResultSane(result);
  rec.fingerprint = Fingerprint(result, artifacts ? &*artifacts : nullptr);
  rec.setup_ns = timed.setup_ns();
  rec.round_starts_ns = timed.round_starts_ns();
  rec.updates = result.total_participations - result.straggler_drops -
                result.offline_skips;
  rec.final_accuracy = result.final_accuracy;
  if (recorder != nullptr) {
    rec.spans = recorder->Merge();
    auto calls = [&rec](SpanKind kind) {
      return static_cast<std::int64_t>(
          std::count_if(rec.spans.begin(), rec.spans.end(),
                        [kind](const SpanRec& s) { return s.kind == kind; }));
    };
    rec.counts.run_client_calls = calls(SpanKind::kRunClient);
    rec.counts.global_logits_calls = calls(SpanKind::kGlobalLogits);
    rec.counts.client_logits_calls = calls(SpanKind::kClientLogits);
    for (const SpanRec& s : rec.spans) {
      if (s.kind == SpanKind::kSaveState) {
        rec.counts.save_state_bytes += s.bytes;
      }
    }
  }
  return rec;
}

// Set-up cost of one pass over the workload's engine runs, without running
// them: the same stages as RunEngine, then the algorithm's Setup on the
// engine's context (what Run would call first).
double SetupOnlySeconds(const Workload& w) {
  double total = 0.0;
  for (const EngineRunSpec& spec : w.runs) {
    std::vector<StageSpan> stages;
    PreparedRun run = Prepare(spec, w.options, obs::ObsConfig{}, stages);
    const std::int64_t partition_start = NowNs();
    fl::FlEngine engine(run.task, run.config, std::move(run.assignments),
                        *run.algorithm);
    stages.push_back({Stage::kPartition, partition_start, NowNs()});
    Rng setup_rng = Rng(run.config.seed).Fork(1);
    const std::int64_t setup_start = NowNs();
    run.algorithm->Setup(engine.context(), setup_rng);
    total += static_cast<double>(NowNs() - setup_start) / 1e9;
    for (const StageSpan& s : stages) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  return total;
}

// --- End-to-end metrics (untraced iterations) ------------------------------

struct E2e {
  double run_s = 0, updates_per_s = 0, round_p50_ms = 0,
         round_p90_ms = 0, global_acc_mean = 0;
  std::size_t rounds = 0;
};

E2e EndToEnd(const Iteration& it) {
  E2e m;
  double updates = 0;
  std::vector<double> round_ms;
  for (const EngineRunRecord& r : it) {
    m.run_s += r.run_ns() / 1e9;
    updates += r.updates;
    m.global_acc_mean += r.final_accuracy / static_cast<double>(it.size());
    const auto& starts = r.round_starts_ns;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::int64_t end =
          i + 1 < starts.size() ? starts[i + 1] : r.run_end_ns;
      round_ms.push_back(Ms(end - starts[i]));
    }
  }
  m.updates_per_s = Ratio(updates, m.run_s);
  m.rounds = round_ms.size();
  m.round_p50_ms = Quantile(round_ms, 0.5);
  m.round_p90_ms = Quantile(round_ms, 0.9);
  return m;
}

// --- Per-layer metrics (traced iterations) ---------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// The per-layer metrics reported by --trace 1, in BENCHMARK.json's order.
constexpr MetricDef kPerLayer[] = {
    {"data.make_task_ms", "ms"},
    {"device.sample_fleet_ms", "ms"},
    {"constraints.assign_ms", "ms"},
    {"models.build_ms", "ms"},
    {"fl.partition_ms", "ms"},
    {"algorithms.setup_ms", "ms"},
    {"algorithms.run_client_ms", "ms"},
    {"algorithms.run_client_calls", "count"},
    {"algorithms.run_client_p50_us", "us"},
    {"algorithms.run_client_p90_us", "us"},
    {"fl.dispatch_wall_ms", "ms"},
    {"fl.dispatch_idle_share", "share"},
    {"tensor.gemm_gflop", "GFLOP"},
    {"tensor.gemm_gflops_per_s", "GFLOP/s"},
    {"algorithms.begin_round_ms", "ms"},
    {"algorithms.finish_round_ms", "ms"},
    {"algorithms.finish_round_p90_us", "us"},
    {"algorithms.global_logits_ms", "ms"},
    {"algorithms.global_logits_calls", "count"},
    {"algorithms.prepare_eval_ms", "ms"},
    {"algorithms.client_logits_ms", "ms"},
    {"algorithms.client_logits_calls", "count"},
    {"fl.stability_wall_ms", "ms"},
    {"fl.stability_idle_share", "share"},
    {"fl.serial_share", "share"},
    {"obs.round_sink_ms", "ms"},
    {"obs.round_sink_p90_us", "us"},
    {"obs.round_sink_bytes", "bytes"},
    {"obs.journal_append_ms", "ms"},
    {"obs.manifest_write_ms", "ms"},
    {"algorithms.save_state_ms", "ms"},
    {"algorithms.save_state_bytes", "bytes"},
    {"fl.engine_self_ms", "ms"},
    {"tensor.scratch_peak_mb", "MB"},
    {"bench.traced_run_ratio", "ratio"},
};

using Metrics = std::map<std::string, double>;

Metrics PerLayer(const Iteration& it, int threads) {
  Metrics m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
  std::vector<double> run_client_us, finish_round_us, round_sink_us;
  double dispatch_ms = 0, stability_ms = 0, run_ms = 0, busy_ms = 0;
  double gemm_flops = 0, scratch_peak = 0;
  for (const EngineRunRecord& r : it) {
    for (const StageSpan& s : r.stages) {
      m[std::string(StageName(s.stage)) + "_ms"] += Ms(s.end_ns - s.start_ns);
    }
    run_ms += r.run_ns() / 1e6;
    gemm_flops += static_cast<double>(r.counts.gemm_flops);
    scratch_peak =
        std::max(scratch_peak, static_cast<double>(r.scratch_peak_bytes));
    m["obs.manifest_write_ms"] += Ms(r.manifest_end_ns - r.manifest_start_ns);

    std::int64_t last_begin_end = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const SpanRec& s : r.spans) {
      const double ms = Ms(s.end_ns - s.start_ns);
      const std::string stem = SpanName(s.kind);
      m[stem + "_ms"] += ms;
      children.emplace_back(s.start_ns, s.end_ns);
      switch (s.kind) {
        case SpanKind::kBeginRound:
          last_begin_end = s.end_ns;
          break;
        case SpanKind::kRunClient:
          run_client_us.push_back(ms * 1e3);
          break;
        case SpanKind::kFinishRound:
          finish_round_us.push_back(ms * 1e3);
          dispatch_ms += Ms(s.start_ns - last_begin_end);
          break;
        case SpanKind::kPrepareEval:
          stability_ms += Ms(r.run_end_ns - s.end_ns);
          break;
        case SpanKind::kRoundSink:
          round_sink_us.push_back(ms * 1e3);
          m["obs.round_sink_bytes"] += static_cast<double>(s.bytes);
          break;
        case SpanKind::kSaveState:
          m["algorithms.save_state_bytes"] += static_cast<double>(s.bytes);
          break;
        default:
          break;
      }
      if (s.kind <= SpanKind::kClientLogits) busy_ms += ms;
    }
    m["fl.engine_self_ms"] +=
        Ms((r.run_end_ns - r.run_start_ns) -
           Covered(std::move(children), r.run_start_ns, r.run_end_ns));
    m["algorithms.run_client_calls"] +=
        static_cast<double>(r.counts.run_client_calls);
    m["algorithms.global_logits_calls"] +=
        static_cast<double>(r.counts.global_logits_calls);
    m["algorithms.client_logits_calls"] +=
        static_cast<double>(r.counts.client_logits_calls);
  }
  m.erase("bench.count_ms");
  m["algorithms.run_client_p50_us"] = Quantile(run_client_us, 0.5);
  m["algorithms.run_client_p90_us"] = Quantile(run_client_us, 0.9);
  m["algorithms.finish_round_p90_us"] = Quantile(finish_round_us, 0.9);
  m["obs.round_sink_p90_us"] = Quantile(round_sink_us, 0.9);
  m["fl.dispatch_wall_ms"] = dispatch_ms;
  m["fl.dispatch_idle_share"] =
      1.0 - Ratio(m["algorithms.run_client_ms"], threads * dispatch_ms);
  m["fl.stability_wall_ms"] = stability_ms;
  m["fl.stability_idle_share"] =
      1.0 - Ratio(m["algorithms.client_logits_ms"], threads * stability_ms);
  m["fl.serial_share"] = 1.0 - Ratio(dispatch_ms + stability_ms, run_ms);
  m["fl.run_ms"] = run_ms;
  m["tensor.gemm_gflop"] = gemm_flops / 1e9;
  m["tensor.gemm_gflops_per_s"] = Ratio(gemm_flops / 1e9, busy_ms / 1e3);
  m["tensor.scratch_peak_mb"] = scratch_peak / (1024.0 * 1024.0);
  return m;
}

// Where the blocking time of a traced iteration went: each parallel phase
// is charged to the call it waits on, each serial call to itself.
void PrintBlockingShares(const Metrics& m) {
  const double run = m.at("fl.run_ms");
  const std::pair<const char*, double> rows[] = {
      {"algorithms.run_client (dispatch wall)", m.at("fl.dispatch_wall_ms")},
      {"algorithms.client_logits (stability wall)",
       m.at("fl.stability_wall_ms")},
      {"algorithms.finish_round", m.at("algorithms.finish_round_ms")},
      {"algorithms.global_logits", m.at("algorithms.global_logits_ms")},
      {"algorithms.begin_round", m.at("algorithms.begin_round_ms")},
      {"algorithms.save_state", m.at("algorithms.save_state_ms")},
      {"obs.round_sink + obs.journal_append",
       m.at("obs.round_sink_ms") + m.at("obs.journal_append_ms")},
      {"fl.engine_self", m.at("fl.engine_self_ms")},
  };
  std::printf("blocking share of traced run_s (%.1f ms):\n", run);
  for (const auto& [name, ms] : rows) {
    std::printf("  %-44s %10.2f ms  %5.1f%%\n", name, ms,
                100.0 * Ratio(ms, run));
  }
}

// Writes the iteration's spans with parents and self times, and prints
// each layer's total and self time.
void WriteSpans(const Iteration& it, const std::string& path) {
  std::ofstream out(path);
  MHB_CHECK(out.good()) << "cannot write" << path;
  struct Row {
    std::string name;
    std::int64_t start, end;
    std::int64_t parent;
    std::int64_t run;
    std::int64_t thread;
    std::int64_t self;
  };
  std::vector<Row> rows;
  auto self_of = [](std::int64_t start, std::int64_t end,
                    std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
    return (end - start) - Covered(std::move(kids), start, end);
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> run_spans;
  rows.push_back({"bench.iteration", 0, 0, -1, -1, 0, 0});
  for (std::size_t r = 0; r < it.size(); ++r) {
    const EngineRunRecord& rec = it[r];
    const auto run_id = static_cast<std::int64_t>(r);
    const std::int64_t start = rec.stages.front().start_ns;
    const std::int64_t end = std::max(rec.run_end_ns, rec.manifest_end_ns);
    const auto engine_run = static_cast<std::int64_t>(rows.size());
    rows.push_back({"bench.engine_run", start, end, 0, run_id, 0, 0});
    run_spans.emplace_back(start, end);
    std::vector<std::pair<std::int64_t, std::int64_t>> phases;
    for (const StageSpan& s : rec.stages) {
      rows.push_back({StageName(s.stage), s.start_ns, s.end_ns, engine_run,
                      run_id, 0, s.end_ns - s.start_ns});
      phases.emplace_back(s.start_ns, s.end_ns);
    }
    const auto fl_run = static_cast<std::int64_t>(rows.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
    for (const SpanRec& s : rec.spans) calls.emplace_back(s.start_ns, s.end_ns);
    rows.push_back({"fl.run", rec.run_start_ns, rec.run_end_ns, engine_run,
                    run_id, 0,
                    self_of(rec.run_start_ns, rec.run_end_ns, calls)});
    phases.emplace_back(rec.run_start_ns, rec.run_end_ns);
    for (const SpanRec& s : rec.spans) {
      rows.push_back({SpanName(s.kind), s.start_ns, s.end_ns, fl_run, run_id,
                      s.thread, s.end_ns - s.start_ns});
    }
    if (rec.manifest_end_ns > rec.manifest_start_ns) {
      rows.push_back({"obs.manifest_write", rec.manifest_start_ns,
                      rec.manifest_end_ns, engine_run, run_id, 0,
                      rec.manifest_end_ns - rec.manifest_start_ns});
      phases.emplace_back(rec.manifest_start_ns, rec.manifest_end_ns);
    }
    rows[static_cast<std::size_t>(engine_run)].self =
        self_of(start, end, std::move(phases));
  }
  rows[0].start = run_spans.front().first;
  rows[0].end = run_spans.back().second;
  rows[0].self = self_of(rows[0].start, rows[0].end, run_spans);

  std::map<std::string, std::pair<double, double>> totals;  // total, self
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "{\"span\": " << i << ", \"name\": \"" << row.name
        << "\", \"start_us\": " << row.start / 1000
        << ", \"end_us\": " << row.end / 1000 << ", \"parent\": " << row.parent
        << ", \"run\": " << row.run << ", \"thread\": " << row.thread
        << ", \"self_us\": " << row.self / 1000 << "}\n";
    totals[row.name].first += Ms(row.end - row.start);
    totals[row.name].second += Ms(row.self);
  }
  MHB_CHECK(out.good()) << "short write to" << path;
  std::vector<std::pair<std::string, std::pair<double, double>>> sorted(
      totals.begin(), totals.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.second > b.second.second;
  });
  std::printf("span self time (last traced iteration, %zu spans -> %s):\n",
              rows.size(), path.c_str());
  for (const auto& [name, t] : sorted) {
    std::printf("  %-28s total %10.2f ms  self %10.2f ms\n", name.c_str(),
                t.first, t.second);
  }
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/out";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stoi(value);
    } else if (key == "--trace") {
      a.trace = value != "0";
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw Error("unknown flag " + key);
    }
  }
  MHB_CHECK(argc % 2 == 1) << "flag without value";
  MHB_CHECK(!a.workload.empty()) << "--workload is required";
  MHB_CHECK(a.seconds > 0) << "--seconds must be > 0";
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload, args.seed, kThreads);
  const std::string scratch = args.out + "/manifests-" + args.workload;
  std::filesystem::create_directories(args.out);

  int attempted = 0;
  int failed = 0;
  // References per engine run: the first iteration's fingerprint and GEMM
  // count, and the first traced iteration's counts.
  std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>>
      ref_result(w.runs.size());
  std::vector<std::optional<ExactCounts>> ref_traced(w.runs.size());
  auto iterate = [&](bool traced) {
    Iteration it;
    for (std::size_t r = 0; r < w.runs.size(); ++r) {
      ++attempted;
      EngineRunRecord rec;
      try {
        rec = RunEngine(w, r, traced, scratch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run %zu (%s/%s) threw: %s\n", r,
                     w.runs[r].algorithm.c_str(), w.runs[r].task.c_str(),
                     e.what());
        rec.ok = false;
      }
      std::filesystem::remove_all(scratch);
      const std::pair<std::uint64_t, std::uint64_t> result = {
          rec.fingerprint, rec.counts.gemm_flops};
      if (rec.ok && !ref_result[r]) ref_result[r] = result;
      if (rec.ok && result != *ref_result[r]) {
        std::fprintf(stderr, "run %zu: result or GEMM count differs from "
                             "the first iteration\n", r);
        rec.ok = false;
      }
      if (rec.ok && traced) {
        if (!ref_traced[r]) ref_traced[r] = rec.counts;
        if (!(rec.counts == *ref_traced[r])) {
          std::fprintf(stderr, "run %zu: exact counts drifted\n", r);
          rec.ok = false;
        }
      }
      if (!rec.ok) ++failed;
      it.push_back(std::move(rec));
    }
    return it;
  };

  // Warm-up: one set-up pass primes the data generators and allocators
  // before anything is timed.
  SetupOnlySeconds(w);
  std::vector<Iteration> untraced, traced;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds) * 1000000000LL;
  for (int i = 0;; ++i) {
    const bool t = args.trace && i % 2 == 1;
    Iteration it = iterate(t);
    const bool complete = std::all_of(
        it.begin(), it.end(),
        [](const EngineRunRecord& r) { return r.ok; });
    if (complete) (t ? traced : untraced).push_back(std::move(it));
    const bool enough =
        untraced.size() >= kMinIterations &&
        (!args.trace || traced.size() >= kMinIterations);
    if (NowNs() >= deadline && (enough || failed > 0)) break;
  }

  Metrics out;
  std::vector<MetricDef> defs;
  std::size_t rounds_per_iteration = 0;
  std::vector<E2e> e2e;
  for (const Iteration& it : untraced) e2e.push_back(EndToEnd(it));
  auto median_of = [&e2e](double E2e::*field) {
    std::vector<double> v;
    for (const E2e& m : e2e) v.push_back(m.*field);
    return Median(v);
  };
  if (!e2e.empty()) rounds_per_iteration = e2e.front().rounds;
  std::printf("run_s of each untraced iteration:");
  for (const E2e& m : e2e) std::printf(" %.3f", m.run_s);
  double gflop = 0.0;
  if (!untraced.empty()) {
    for (const auto& r : untraced.front()) {
      gflop += static_cast<double>(r.counts.gemm_flops) / 1e9;
    }
  }
  std::printf("; %.3f GEMM GFLOP per iteration\n", gflop);
  if (!args.trace) {
    // Set-up is short next to a run, so it is timed on its own: the median
    // of kSetupSamples set-up-only passes (fewer if they exceed
    // kSetupBudgetNs, but at least kMinIterations).
    std::vector<double> setups;
    const std::int64_t setup_deadline = NowNs() + kSetupBudgetNs;
    while (setups.size() < kSetupSamples &&
           (setups.size() < kMinIterations || NowNs() < setup_deadline)) {
      setups.push_back(SetupOnlySeconds(w));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out = {
        {"setup_s", Median(setups)},
        {"run_s", median_of(&E2e::run_s)},
        {"updates_per_s", median_of(&E2e::updates_per_s)},
        {"round_p50_ms", median_of(&E2e::round_p50_ms)},
        {"round_p90_ms", median_of(&E2e::round_p90_ms)},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"global_acc_mean", median_of(&E2e::global_acc_mean)},
    };
    defs = {{"setup_s", "s"},           {"run_s", "s"},
            {"updates_per_s", "1/s"},   {"round_p50_ms", "ms"},
            {"round_p90_ms", "ms"},     {"peak_rss_mb", "MB"},
            {"global_acc_mean", "share"}};
  } else {
    std::vector<Metrics> layers;
    for (const Iteration& it : traced) layers.push_back(PerLayer(it, kThreads));
    for (const MetricDef& d : kPerLayer) {
      std::vector<double> v;
      for (const Metrics& m : layers) v.push_back(m.at(d.name));
      out[d.name] = Median(v);
      defs.push_back(d);
    }
    std::vector<double> traced_run;
    for (const Metrics& m : layers) traced_run.push_back(m.at("fl.run_ms") / 1e3);
    out["bench.traced_run_ratio"] =
        Ratio(Median(traced_run), median_of(&E2e::run_s));
    if (!traced.empty()) {
      PrintBlockingShares(layers.back());
      WriteSpans(traced.back(), args.out + "/spans-" + args.workload +
                                    "-seed" + std::to_string(args.seed) +
                                    ".jsonl");
    }
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced iterations, "
              "%zu engine runs and %zu rounds per iteration, %d threads\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size(), w.runs.size(),
              rounds_per_iteration, kThreads);
  for (const MetricDef& d : defs) {
    std::printf("  %-34s %16.6f %s\n", d.name, out[d.name], d.unit);
  }
  std::printf("  %-34s %16d\n  %-34s %16d\n", "runs_failed", failed,
              "runs_attempted", attempted);

  const bool have_data = args.trace ? !traced.empty() : !untraced.empty();
  bool correct = failed == 0 && have_data;
  for (const MetricDef& d : defs) correct = correct && std::isfinite(out[d.name]);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", defs[i].name);
    PrintJsonNumber(out[defs[i].name]);
    std::printf(", \"unit\": \"%s\"}", defs[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace mhbench::e2e

int main(int argc, char** argv) {
  try {
    return mhbench::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
