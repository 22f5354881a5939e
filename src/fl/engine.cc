#include "fl/engine.h"

#include <algorithm>
#include <cmath>

#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/error.h"
#include "core/logging.h"
#include "data/partition.h"
#include "fl/checkpoint.h"
#include "fl/evaluation.h"
#include "obs/det_audit.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"

namespace mhbench::fl {

double RunResult::TimeToAccuracy(double target) const {
  for (const auto& r : curve) {
    if (r.global_acc >= target) return r.sim_time_s;
  }
  return std::numeric_limits<double>::infinity();
}

double RunResult::StabilityVariance() const {
  if (client_accuracies.empty()) return 0.0;
  double mean = 0.0;
  for (double a : client_accuracies) mean += a;
  mean /= static_cast<double>(client_accuracies.size());
  double var = 0.0;
  for (double a : client_accuracies) var += (a - mean) * (a - mean);
  return var / static_cast<double>(client_accuracies.size());
}

double RunResult::MeanClientAccuracy() const {
  if (client_accuracies.empty()) return 0.0;
  double mean = 0.0;
  for (double a : client_accuracies) mean += a;
  return mean / static_cast<double>(client_accuracies.size());
}

namespace {

using MetaValue =
    std::variant<std::string, std::uint64_t, std::int32_t, std::uint8_t,
                 double>;

// One field of a snapshot's "meta" section: the config identity the
// snapshot was written under.  The value's type is its wire type.
struct MetaField {
  const char* name;
  // A hard field changes the data partition, the RNG stream or the local
  // objective, so a mismatch makes the saved state meaningless and resume
  // throws.  A soft one may change mid-campaign (warm starts,
  // constraint-switch studies); the resumed run is then a new experiment,
  // not a bit-identical continuation, and resume warns.
  bool hard;
  MetaValue value;
};

// Sampled clients per round when sample_fraction * clients rounds lower.
constexpr int kMinSampled = 2;

// The meta section in wire order (the 23-field v1 layout), valued from the
// running config; it drives both WriteCheckpoint and RestoreCheckpoint.
// The local-recipe rows carry LocalTrainOptions' defaults, and the five
// retired optimizer/schedule rows their last defaults (SGD, constant
// schedule, step 50, gamma 0.5, floor 0.05).  No config sets those rows,
// so a snapshot holding any other value was written by a recipe this
// build cannot run, and they are hard.
std::vector<MetaField> MetaFields(const FlConfig& c, int num_clients,
                                  const std::string& algorithm) {
  const LocalTrainOptions local;
  return {
      {"algorithm", true, algorithm},
      {"seed", true, c.seed},
      {"num_clients", true, num_clients},
      {"rounds", false, c.rounds},
      {"sample_fraction", false, c.sample_fraction},
      {"min_sampled", true, kMinSampled},
      {"local_epochs", true, local.epochs},
      {"batch_size", true, local.batch_size},
      {"lr", true, local.lr},
      {"momentum", true, local.momentum},
      {"weight_decay", true, local.weight_decay},
      {"grad_clip", true, local.grad_clip},
      {"optimizer", true, std::uint8_t{0}},
      {"lr_schedule", true, std::uint8_t{0}},
      {"lr_step", true, std::int32_t{50}},
      {"lr_gamma", true, 0.5},
      {"lr_cosine_floor", true, 0.05},
      {"round_deadline_s", false, c.round_deadline_s},
      {"eval_every", false, c.eval_every},
      {"eval_max_samples", false, c.eval_max_samples},
      {"stability_max_samples", false, c.stability_max_samples},
      {"partition", true, static_cast<std::uint8_t>(c.partition)},
      {"dirichlet_alpha", true, c.dirichlet_alpha},
  };
}

std::string MetaText(const MetaValue& value) {
  std::ostringstream out;
  std::visit(
      [&out](const auto& v) {
        // Unary + prints a u8 field as a number, not a character.
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
          out << +v;
        } else {
          out << v;
        }
      },
      value);
  return out.str();
}

}  // namespace

void MhflAlgorithm::BeginRound(int /*round*/,
                               const std::vector<int>& /*participants*/) {}

void MhflAlgorithm::PrepareEvaluation() {}

void MhflAlgorithm::SaveState(SnapshotWriter& /*writer*/) const {
  throw Error("algorithm '" + name() +
              "' does not implement checkpoint SaveState");
}

void MhflAlgorithm::LoadState(SnapshotReader& /*reader*/) {
  throw Error("algorithm '" + name() +
              "' does not implement checkpoint LoadState");
}

FlEngine::FlEngine(const data::Task& task, FlConfig config,
                   std::vector<ClientAssignment> assignments,
                   MhflAlgorithm& algorithm)
    : config_(config), algorithm_(algorithm), rng_(config.seed) {
  ctx_.task = &task;
  MHB_CHECK_GE(config_.eval_every, 1) << "eval_every must be >= 1";
  MHB_CHECK(!config_.threaded_gemm)
      << "threaded_gemm: the kernel-layer threaded GEMM was removed; every "
         "GEMM runs on its calling thread";
  if (config_.num_threads > 1) {
    // The calling thread participates in every ParallelFor, so num_threads
    // total threads execute client work.
    pool_ = std::make_unique<core::ThreadPool>(config_.num_threads - 1);
    ctx_.pool = pool_.get();
  }

  // Partition the training data into client shards.
  data::Partition partition;
  Rng prng = rng_.Fork(0xDA7A);
  if (task.natural) {
    partition = data::NaturalPartition(task.train, task.num_clients);
  } else if (config_.partition == PartitionKind::kDirichlet) {
    partition = data::DirichletPartition(
        task.train.labels, task.train.num_classes, task.num_clients,
        config_.dirichlet_alpha, prng);
  } else {
    partition = data::IidPartition(static_cast<int>(task.train.size()),
                                   task.num_clients, prng);
  }
  ctx_.shards.reserve(partition.size());
  for (const auto& idx : partition) {
    ctx_.shards.push_back(task.train.Subset(idx));
  }

  if (assignments.empty()) {
    ctx_.assignments.assign(ctx_.shards.size(), ClientAssignment{});
  } else {
    // Natural partitions can drop empty users; tolerate a longer assignment
    // list by truncating.
    MHB_CHECK_GE(assignments.size(), ctx_.shards.size())
        << "need one assignment per client";
    assignments.resize(ctx_.shards.size());
    ctx_.assignments = std::move(assignments);
  }
}

RunResult FlEngine::Run() {
  // The run's one collector install: every span, profile scope and
  // snapshot counter below reads it, on this thread and, through
  // core::ParallelFor, on every pool task.
  const obs::ObsScope obs_scope(&config_.obs);
  obs::Tracer* const tracer = config_.obs.tracer;
  obs::Registry* const reg = config_.obs.registry;

  // Engine-scoped counters, registered serially up front.  Client-scoped
  // telemetry is counted by the registry itself from each round's
  // ClientRows (AddClientRow at the barrier), so the engine only declares
  // the run's device tiers: every tier in the assignment table exports its
  // tier twins, sampled or not.
  struct CounterIds {
    obs::Registry::CounterId pool_tasks{}, gemm_flops{};
  } ids;
  // mhb-obs-phase: serial — registration before the first round.
  if (reg != nullptr) {
    ids.pool_tasks = reg->Counter("pool_tasks");
    ids.gemm_flops = reg->Counter("gemm_flops");
    std::vector<std::string> device_tiers;
    device_tiers.reserve(ctx_.assignments.size());
    for (const auto& a : ctx_.assignments) {
      device_tiers.push_back(a.system.device_tier);
    }
    reg->DeclareClientTiers(device_tiers);
  }
  core::ThreadPool::Stats pool_base =
      pool_ != nullptr ? pool_->stats() : core::ThreadPool::Stats{};
  // Totals at Run() entry: snapshots export per-run deltas relative to
  // these so registries shared across runs never double-count on resume.
  if (reg != nullptr) obs_base_ = reg->SnapshotTotals();

  Rng setup_rng = rng_.Fork(1);
  {
    obs::Span span("setup", "fl");
    algorithm_.Setup(ctx_, setup_rng);
  }

  RunResult result;
  double sim_time = 0.0;
  int start_round = 0;
  if (!config_.resume_path.empty()) {
    obs::Span span("restore", "fl");
    start_round = RestoreCheckpoint(result, sim_time);
  }
  // Kernel-layer observability: the GEMM flop count is an exact integer
  // independent of thread count (published as per-round counter deltas);
  // the scratch high-water mark is a gauge because it does depend on how
  // many arenas are live.  Captured after Setup + restore: restore-time
  // shape probes must not count — their flops already live in the
  // snapshot's imported counter deltas.
  std::uint64_t gemm_base = kernels::TotalGemmFlops();
  const int num_clients = ctx_.num_clients();
  const int sample_count = std::max(
      kMinSampled,
      static_cast<int>(std::lround(config_.sample_fraction * num_clients)));

  // The test batches run on the pool; GlobalLogits is safe to call
  // concurrently (stateless inference, nn/module.h).  The profile scope is
  // per batch so every batch's work lands under it, whichever thread runs
  // it.
  auto evaluate_global = [&]() {
    obs::Span span("eval_global", "eval");
    return EvaluateAccuracy(
        [&](const Tensor& x) {
          obs::ProfileScope profile_scope("eval_global");
          return algorithm_.GlobalLogits(x);
        },
        ctx_.task->test, config_.eval_max_samples, kEvalBatchSize,
        pool_.get());
  };

  for (int round = start_round; round < config_.rounds; ++round) {
    const auto round_wall_start = std::chrono::steady_clock::now();
    const double round_sim_start = sim_time;
    obs::Span round_span("round", "fl");
    round_span.Arg("round", static_cast<std::int64_t>(round));

    Rng round_rng = rng_.Fork(static_cast<std::uint64_t>(round) + 100);
    const std::vector<int> sampled = round_rng.SampleWithoutReplacement(
        num_clients, std::min(sample_count, num_clients));

    // Phase 1 (serial): every order-sensitive random decision — availability
    // draws, straggler drops, per-client Rng forks — is made here, in the
    // sampled order, consuming round_rng exactly as the serial engine does.
    // Only after the full stream is fixed may clients run concurrently.
    obs::Span select_span("select", "fl");
    std::vector<Participant> participants;
    participants.reserve(sampled.size());
    // One timeline row per sampled client (dropped ones included, with
    // their drop reason): the run's participation counts and, at the
    // barrier, every registry client metric are counted from them.  Each
    // participant remembers its row, so the dispatch lambda writes the
    // measured wall time into its own slot without synchronization.
    std::vector<obs::Registry::ClientRow> client_rows(sampled.size());
    double round_time = 0.0;
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      const int c = sampled[i];
      const auto& sys = ctx_.assignments[static_cast<std::size_t>(c)].system;
      const double client_time = sys.compute_time_s + sys.comm_time_s;
      obs::Registry::ClientRow& row = client_rows[i];
      row.run = algorithm_.name();
      row.round = round;
      row.client = c;
      row.device_tier = sys.device_tier;
      row.sim_compute_s = sys.compute_time_s;
      row.sim_comm_s = sys.comm_time_s;
      row.memory_mb = sys.memory_mb;
      if (sys.availability < 1.0 &&
          round_rng.Uniform() >= sys.availability) {
        // State heterogeneity: the device is offline this round.
        row.drop_reason = "offline";
      } else if (config_.round_deadline_s > 0 &&
                 client_time > config_.round_deadline_s) {
        // Straggler: the synchronous round closes without this client.
        row.drop_reason = "straggler";
      } else {
        // The cost model charges comm_mb for the full up+down payload.
        row.bytes_up = static_cast<std::int64_t>(sys.comm_mb * 5e5);
        row.bytes_down = static_cast<std::int64_t>(sys.comm_mb * 5e5);
        row.train_mflops = static_cast<std::int64_t>(sys.train_gflops * 1e3);
        participants.push_back(
            {c, round_rng.Fork(static_cast<std::uint64_t>(c)), i});
        round_time = std::max(round_time, client_time);
      }
      ++result.total_participations;
      if (row.drop_reason == "offline") ++result.offline_skips;
      if (row.drop_reason == "straggler") ++result.straggler_drops;
    }
    if (config_.round_deadline_s > 0) {
      // The server waits until the deadline regardless of who made it.
      round_time = config_.round_deadline_s;
    }
    select_span.End();

    std::vector<int> participant_ids;
    participant_ids.reserve(participants.size());
    for (const auto& p : participants) participant_ids.push_back(p.client_id);
    algorithm_.BeginRound(round, participant_ids);

    // Phase 2: dispatch.  Each participant trains with the Rng fixed above;
    // algorithms stage uploads per client and merge them in participant
    // order inside FinishRound.  Each client writes only its own row's
    // wall time; every registry call waits for the serial barrier.
    obs::Span dispatch_span("dispatch", "fl");
    dispatch_span.Arg("participants",
                      static_cast<std::int64_t>(participants.size()));
    // mhb-obs-phase: parallel — no registry calls inside the dispatch.
    core::ParallelFor(pool_.get(), participants.size(), [&](std::size_t i) {
      const int client_id = participants[i].client_id;
      const auto& sys =
          ctx_.assignments[static_cast<std::size_t>(client_id)].system;
      obs::Span client_span("client", "client");
      client_span.Arg("client", static_cast<std::int64_t>(client_id));
      client_span.Arg("bytes_up", sys.comm_mb * 5e5);
      client_span.Arg("bytes_down", sys.comm_mb * 5e5);
      client_span.Arg("train_gflops", sys.train_gflops);
      const auto client_wall_start = std::chrono::steady_clock::now();
      {
        obs::ProfileScope profile_scope("client");
        algorithm_.RunClient(client_id, round, participants[i].rng);
      }
      client_rows[participants[i].row].wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - client_wall_start)
              .count();
    });
    dispatch_span.End();
    // mhb-obs-phase: serial — dispatch joined; barrier merge and gauges.

    {
      obs::Span merge_span("merge", "fl");
      algorithm_.FinishRound(round, round_rng);
    }
    sim_time += round_time;

    if (tracer != nullptr) {
      // Simulated-clock track: one lane per client, timestamps in simulated
      // seconds.  Lane -1 carries the round envelope.
      tracer->RecordSim("round " + std::to_string(round), "sim",
                        round_sim_start, round_time, -1);
      for (const auto& p : participants) {
        const auto& sys =
            ctx_.assignments[static_cast<std::size_t>(p.client_id)].system;
        tracer->RecordSim(
            "compute", "sim", round_sim_start, sys.compute_time_s,
            p.client_id, {{"round", std::to_string(round)}});
        tracer->RecordSim(
            "comm", "sim", round_sim_start + sys.compute_time_s,
            sys.comm_time_s, p.client_id,
            {{"round", std::to_string(round)}});
      }
    }

    bool evaluated = false;
    double eval_acc = 0.0;
    if ((round + 1) % config_.eval_every == 0 ||
        round + 1 == config_.rounds) {
      eval_acc = evaluate_global();
      evaluated = true;
      result.curve.push_back({round, sim_time, eval_acc});
      MHB_LOG_DEBUG << algorithm_.name() << " round " << round
                    << " acc=" << eval_acc << " t=" << sim_time;
    }
    round_span.End();

    if (reg != nullptr) {
      // Round barrier: count this round's client rows, then publish the
      // round's counter deltas + gauges as a manifest row.
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - round_wall_start)
              .count();
      reg->SetGauge("wall_ms", wall_ms);
      reg->SetGauge("round_time_s", round_time);
      reg->SetGauge("sim_time_s", sim_time);
      if (evaluated) reg->SetGauge("global_acc", eval_acc);
      const std::uint64_t gemm_now = kernels::TotalGemmFlops();
      reg->Add(ids.gemm_flops,
               static_cast<std::int64_t>(gemm_now - gemm_base));
      gemm_base = gemm_now;
      reg->SetGauge("scratch_bytes_peak",
                    static_cast<double>(kernels::ScratchPeakBytesAllThreads()));
      if (pool_ != nullptr) {
        const core::ThreadPool::Stats now = pool_->stats();
        reg->Add(ids.pool_tasks, static_cast<std::int64_t>(
                                     now.tasks_executed -
                                     pool_base.tasks_executed));
        reg->SetGauge("pool_idle_ms",
                      static_cast<double>(now.idle_ns - pool_base.idle_ns) /
                          1e6);
        pool_base = now;
      }
      for (auto& row : client_rows) reg->AddClientRow(std::move(row));
      reg->EndRound(algorithm_.name(), round);
      MHB_LOG_TRACE << algorithm_.name() << " round " << round
                    << " sampled=" << sampled.size()
                    << " participants=" << participants.size()
                    << " wall_ms=" << wall_ms;
    }

    // Divergence ledger, after EndRound: the counter component hashes the
    // totals with the whole round counted.  Read-only over engine state, so
    // auditing cannot perturb the run it audits.
    if (config_.obs.det_audit != nullptr) {
      AuditRound(round);
    }

    if (config_.checkpoint_every > 0 &&
        (round + 1) % config_.checkpoint_every == 0) {
      // After the round barrier: the round counted (EndRound above when a
      // registry is attached), no client work in flight.
      obs::Span ckpt_span("checkpoint", "fl");
      WriteCheckpoint(round + 1, sim_time, result);
    }
  }

  result.total_sim_time_s = sim_time;
  result.final_accuracy =
      result.curve.empty() ? evaluate_global() : result.curve.back().global_acc;

  // Stability: every client's personalized model on the shared test set.
  // Clients are independent given the final global state, so the loop
  // parallelizes; each client writes only its own slot.
  obs::Span stability_span("stability_eval", "eval");
  algorithm_.PrepareEvaluation();
  result.client_accuracies.assign(static_cast<std::size_t>(num_clients), 0.0);
  core::ParallelFor(
      pool_.get(), static_cast<std::size_t>(num_clients), [&](std::size_t c) {
        obs::Span span("client_eval", "eval");
        span.Arg("client", static_cast<std::int64_t>(c));
        obs::ProfileScope profile_scope("client_eval");
        result.client_accuracies[c] = EvaluateAccuracy(
            [&](const Tensor& x) {
              return algorithm_.ClientLogits(static_cast<int>(c), x);
            },
            ctx_.task->test, config_.stability_max_samples);
      });
  stability_span.End();
  return result;
}

void FlEngine::WriteCheckpoint(int next_round, double sim_time,
                               const RunResult& partial) const {
  SnapshotWriter w;

  w.BeginSection("meta");
  for (const MetaField& f :
       MetaFields(config_, ctx_.num_clients(), algorithm_.name())) {
    std::visit(
        [&w](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) w.WriteString(v);
          if constexpr (std::is_same_v<T, std::uint64_t>) w.WriteU64(v);
          if constexpr (std::is_same_v<T, std::int32_t>) w.WriteI32(v);
          if constexpr (std::is_same_v<T, std::uint8_t>) w.WriteU8(v);
          if constexpr (std::is_same_v<T, double>) w.WriteF64(v);
        },
        f.value);
  }
  w.EndSection();

  // "engine": round position, simulated clock, the partial result, and the
  // engine RNG stream (restoring it replays every later Fork identically).
  w.BeginSection("engine");
  w.WriteI32(next_round);
  w.WriteF64(sim_time);
  w.WriteI64(partial.straggler_drops);
  w.WriteI64(partial.offline_skips);
  w.WriteI64(partial.total_participations);
  w.WriteU32(static_cast<std::uint32_t>(partial.curve.size()));
  for (const auto& rec : partial.curve) {
    w.WriteI32(rec.round);
    w.WriteF64(rec.sim_time_s);
    w.WriteF64(rec.global_acc);
  }
  const Rng::State rng_state = rng_.SaveState();
  w.WriteU64(rng_state.state);
  w.WriteU8(rng_state.have_cached_gaussian ? 1 : 0);
  w.WriteF64(rng_state.cached_gaussian);
  w.EndSection();

  w.BeginSection("algorithm");
  algorithm_.SaveState(w);
  w.EndSection();

  // "obs": this run's counter/histogram contributions so far, as deltas
  // against the totals captured at Run() entry (the registry may be shared
  // with earlier runs).  Histogram bucket counts and sums subtract exactly;
  // min/max are taken from the merged totals, which is exact for the
  // resume contract because min/max are idempotent over set unions.  Only
  // the metrics the det-audit ledger hashes are written: wall-clock and
  // scheduling totals (pool_tasks, checkpoint_*, *_us, *_ms) stay with the
  // process that measured them, so equal runs write equal bytes at any
  // --threads.
  obs::Registry* const reg = config_.obs.registry;
  if (reg != nullptr) {
    w.BeginSection("obs");
    const obs::Registry::LiveSnapshot snap = reg->SnapshotTotals();
    std::map<std::string, std::int64_t> counter_deltas;
    for (const auto& [name, total] : snap.counters) {
      if (!obs::DetAuditor::AuditableMetric(name)) continue;
      auto it = obs_base_.counters.find(name);
      const std::int64_t base = it == obs_base_.counters.end() ? 0 : it->second;
      // Zero deltas are written too: the registered-name set is fixed
      // serially, so the section lists the same names at any --threads.
      // Importing a zero delta is a no-op.
      counter_deltas[name] = total - base;
    }
    w.WriteU32(static_cast<std::uint32_t>(counter_deltas.size()));
    for (const auto& [name, delta] : counter_deltas) {
      w.WriteString(name);
      w.WriteI64(delta);
    }
    std::map<std::string, obs::Registry::HistogramData> hist_deltas;
    for (const auto& [name, data] : snap.hists) {
      if (!obs::DetAuditor::AuditableMetric(name)) continue;
      obs::Registry::HistogramData delta = data;
      auto it = obs_base_.hists.find(name);
      if (it != obs_base_.hists.end()) {
        for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
          delta.buckets[b] -= it->second.buckets[b];
        }
        delta.sum -= it->second.sum;
      }
      if (delta.count() != 0) hist_deltas[name] = delta;
    }
    w.WriteU32(static_cast<std::uint32_t>(hist_deltas.size()));
    for (const auto& [name, delta] : hist_deltas) {
      w.WriteString(name);
      for (const std::int64_t b : delta.buckets) w.WriteI64(b);
      w.WriteI64(delta.sum);
      w.WriteI64(delta.min);
      w.WriteI64(delta.max);
    }
    w.EndSection();
  }

  std::filesystem::create_directories(config_.checkpoint_dir);
  std::string num = std::to_string(next_round);
  if (num.size() < 6) num.insert(0, 6 - num.size(), '0');
  const std::string path =
      config_.checkpoint_dir + "/round_" + num + ".mhbsnap";
  w.WriteFile(path);
  MHB_LOG_INFO << algorithm_.name() << " checkpoint @round " << next_round
               << " -> " << path;
}

void FlEngine::AuditRound(int round) const {
  obs::DetAuditor* const audit = config_.obs.det_audit;
  std::vector<std::pair<std::string, std::uint64_t>> components;
  {
    // Root RNG stream: every later serial Fork (sampling, per-client
    // streams) depends on it, so it diverges first when a draw leaks into
    // the parallel phase.
    obs::DetHash h;
    const Rng::State s = rng_.SaveState();
    h.UpdateU64(s.state);
    h.UpdateU64(s.have_cached_gaussian ? 1 : 0);
    h.UpdateF64(s.cached_gaussian);
    components.emplace_back("rng", h.value());
  }
  {
    // Model parameters + algorithm server state: SaveState serializes the
    // global store bytes per parameter store plus each algorithm's extra
    // state, so this is the "did aggregation produce the same bits"
    // component.
    SnapshotWriter w;
    w.BeginSection("algorithm");
    algorithm_.SaveState(w);
    w.EndSection();
    const std::vector<std::uint8_t> bytes = w.Finish();
    obs::DetHash h;
    h.Update(bytes.data(), bytes.size());
    components.emplace_back("model", h.value());
  }
  // Counter / histogram totals after the barrier merge, minus the metrics
  // that are run-dependent by design (wall times, pool scheduling,
  // checkpoint I/O) — the same subset the determinism sweeps compare.
  obs::DetHash hc;
  obs::DetHash hh;
  obs::Registry* const reg = config_.obs.registry;
  if (reg != nullptr) {
    const obs::Registry::LiveSnapshot snap = reg->SnapshotTotals();
    for (const auto& [name, total] : snap.counters) {
      if (!obs::DetAuditor::AuditableMetric(name)) continue;
      hc.UpdateString(name);
      hc.UpdateI64(total);
    }
    for (const auto& [name, data] : snap.hists) {
      if (!obs::DetAuditor::AuditableMetric(name)) continue;
      hh.UpdateString(name);
      for (const std::int64_t b : data.buckets) hh.UpdateI64(b);
      hh.UpdateI64(data.sum);
      hh.UpdateI64(data.min);
      hh.UpdateI64(data.max);
    }
  }
  components.emplace_back("counters", hc.value());
  components.emplace_back("hists", hh.value());
  audit->RecordRound(round, std::move(components));
}

int FlEngine::RestoreCheckpoint(RunResult& result, double& sim_time) {
  SnapshotReader r = SnapshotReader::FromFile(config_.resume_path);

  r.EnterSection("meta");
  for (const MetaField& f :
       MetaFields(config_, ctx_.num_clients(), algorithm_.name())) {
    MetaValue saved = f.value;  // the configured type selects the read
    std::visit(
        [&r](auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) v = r.ReadString();
          if constexpr (std::is_same_v<T, std::uint64_t>) v = r.ReadU64();
          if constexpr (std::is_same_v<T, std::int32_t>) v = r.ReadI32();
          if constexpr (std::is_same_v<T, std::uint8_t>) v = r.ReadU8();
          if constexpr (std::is_same_v<T, double>) v = r.ReadF64();
        },
        saved);
    if (saved == f.value) continue;
    MHB_CHECK(!f.hard) << "snapshot" << f.name << "mismatch: saved"
                       << MetaText(saved) << "vs configured"
                       << MetaText(f.value);
    MHB_LOG_WARN << "resume: " << f.name << " changed (" << MetaText(saved)
                 << " -> " << MetaText(f.value) << ")";
  }
  r.ExpectSectionEnd();

  r.EnterSection("engine");
  const int next_round = r.ReadI32();
  MHB_CHECK_LE(next_round, config_.rounds)
      << "snapshot is past the configured round count";
  sim_time = r.ReadF64();
  result.straggler_drops = static_cast<int>(r.ReadI64());
  result.offline_skips = static_cast<int>(r.ReadI64());
  result.total_participations = static_cast<int>(r.ReadI64());
  const std::uint32_t curve_len = r.ReadU32();
  result.curve.clear();
  result.curve.reserve(curve_len);
  for (std::uint32_t i = 0; i < curve_len; ++i) {
    RoundRecord rec;
    rec.round = r.ReadI32();
    rec.sim_time_s = r.ReadF64();
    rec.global_acc = r.ReadF64();
    result.curve.push_back(rec);
  }
  Rng::State rng_state;
  rng_state.state = r.ReadU64();
  rng_state.have_cached_gaussian = r.ReadU8() != 0;
  rng_state.cached_gaussian = r.ReadF64();
  rng_.RestoreState(rng_state);
  r.ExpectSectionEnd();

  r.EnterSection("algorithm");
  algorithm_.LoadState(r);
  r.ExpectSectionEnd();

  obs::Registry* const reg = config_.obs.registry;
  if (r.HasSection("obs") && reg != nullptr) {
    r.EnterSection("obs");
    std::map<std::string, std::int64_t> counters;
    const std::uint32_t ncounters = r.ReadU32();
    for (std::uint32_t i = 0; i < ncounters; ++i) {
      const std::string name = r.ReadString();
      counters[name] = r.ReadI64();
    }
    std::map<std::string, obs::Registry::HistogramData> hists;
    const std::uint32_t nhists = r.ReadU32();
    for (std::uint32_t i = 0; i < nhists; ++i) {
      const std::string name = r.ReadString();
      obs::Registry::HistogramData data;
      for (std::size_t b = 0; b < data.buckets.size(); ++b) {
        data.buckets[b] = r.ReadI64();
      }
      data.sum = r.ReadI64();
      data.min = r.ReadI64();
      data.max = r.ReadI64();
      hists[name] = data;
    }
    r.ExpectSectionEnd();
    reg->ImportTotals(counters, hists);
  }

  MHB_LOG_INFO << algorithm_.name() << " resumed from " << config_.resume_path
               << " @round " << next_round;
  return next_round;
}

}  // namespace mhbench::fl
