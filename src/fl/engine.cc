#include "fl/engine.h"

#include <algorithm>
#include <cmath>

#include <chrono>
#include <filesystem>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "data/partition.h"
#include "fl/checkpoint.h"
#include "fl/evaluation.h"
#include "nn/lr_schedule.h"
#include "obs/det_audit.h"
#include "obs/live.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"

namespace mhbench::fl {

double FlContext::LrMultiplier(int round) const {
  if (round < 0) return 1.0;
  switch (config->lr_schedule) {
    case LrScheduleKind::kConstant:
      return 1.0;
    case LrScheduleKind::kStepDecay:
      return nn::StepDecayLr(config->lr_step, config->lr_gamma)
          .Multiplier(round, config->rounds);
    case LrScheduleKind::kCosine:
      return nn::CosineLr(config->lr_cosine_floor)
          .Multiplier(round, config->rounds);
  }
  return 1.0;
}

LocalTrainOptions FlContext::local_options(int round) const {
  LocalTrainOptions opts;
  opts.optimizer = config->optimizer;
  opts.epochs = config->local_epochs;
  opts.batch_size = config->batch_size;
  opts.lr = config->lr * LrMultiplier(round);
  opts.momentum = config->momentum;
  opts.weight_decay = config->weight_decay;
  opts.grad_clip = config->grad_clip;
  return opts;
}

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
  ctx_.config = &config_;
  MHB_CHECK_GE(config_.eval_every, 1) << "eval_every must be >= 1";
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
  obs::Tracer* const tracer = config_.obs.tracer;
  obs::Registry* const reg = config_.obs.registry;
  obs::Profiler* const prof = config_.obs.profiler;
  const bool sim_spans = config_.obs.sim_spans && tracer != nullptr;
  // Serial phases (setup, merge, aggregation) profile on this thread; the
  // dispatch and eval lambdas install their own guards because pool workers
  // have no profiler context of their own.
  obs::ProfilerThreadGuard main_profiler_guard(prof);

  // Routes kernel-layer macro-tile parallelism to the engine pool for this
  // run's serial phases (FlConfig::threaded_gemm).  Client dispatch is
  // unaffected: GEMMs issued from pool workers always run serially
  // (tensor/gemm.h), so per-client training keeps its one-thread contract.
  struct GemmPoolScope {
    bool active;
    core::ThreadPool* prev;
    explicit GemmPoolScope(core::ThreadPool* pool)
        : active(pool != nullptr),
          prev(active ? kernels::SetGemmThreadPool(pool) : nullptr) {}
    ~GemmPoolScope() {
      if (active) kernels::SetGemmThreadPool(prev);
    }
  } gemm_pool_scope(config_.threaded_gemm ? pool_.get() : nullptr);

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
  if (reg != nullptr) {
    obs_base_counters_ = reg->Totals();
    obs_base_hists_ = reg->Histograms();
  }

  Rng setup_rng = rng_.Fork(1);
  {
    obs::Span span(tracer, "setup", "fl");
    algorithm_.Setup(ctx_, setup_rng);
  }

  RunResult result;
  double sim_time = 0.0;
  int start_round = 0;
  if (!config_.resume_path.empty()) {
    obs::Span span(tracer, "restore", "fl");
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
      config_.min_sampled,
      static_cast<int>(std::lround(config_.sample_fraction * num_clients)));

  // The test batches run on the pool; GlobalLogits is safe to call
  // concurrently (stateless inference, nn/module.h).  The profile scope is
  // per batch so every batch's work lands under it, whichever thread runs
  // it.
  auto evaluate_global = [&]() {
    obs::Span span(tracer, "eval_global", "eval");
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
    obs::Span round_span(tracer, "round", "fl");
    round_span.Arg("round", static_cast<std::int64_t>(round));

    Rng round_rng = rng_.Fork(static_cast<std::uint64_t>(round) + 100);
    const std::vector<int> sampled = round_rng.SampleWithoutReplacement(
        num_clients, std::min(sample_count, num_clients));

    // Phase 1 (serial): every order-sensitive random decision — availability
    // draws, straggler drops, per-client Rng forks — is made here, in the
    // sampled order, consuming round_rng exactly as the serial engine does.
    // Only after the full stream is fixed may clients run concurrently.
    obs::Span select_span(tracer, "select", "fl");
    std::vector<Participant> participants;
    participants.reserve(sampled.size());
    // Per-client timeline rows, built serially for every sampled client
    // (dropped ones included, with their drop reason) and handed to the
    // registry at the barrier, which counts every client metric from them.
    // Each participant remembers its row index so the dispatch lambda can
    // write the measured wall time into its own slot without
    // synchronization.
    std::vector<obs::Registry::ClientRow> client_rows;
    std::vector<std::size_t> participant_row;
    double round_time = 0.0;
    int round_offline = 0;
    int round_dropped = 0;
    for (int c : sampled) {
      const auto& sys = ctx_.assignments[static_cast<std::size_t>(c)].system;
      const double client_time = sys.compute_time_s + sys.comm_time_s;
      ++result.total_participations;
      obs::Registry::ClientRow* row = nullptr;
      if (reg != nullptr) {
        row = &client_rows.emplace_back();
        row->run = algorithm_.name();
        row->round = round;
        row->client = c;
        row->device_tier = sys.device_tier;
        row->sim_compute_s = sys.compute_time_s;
        row->sim_comm_s = sys.comm_time_s;
        row->memory_mb = sys.memory_mb;
      }
      if (sys.availability < 1.0 &&
          round_rng.Uniform() >= sys.availability) {
        // State heterogeneity: the device is offline this round.
        ++result.offline_skips;
        ++round_offline;
        if (row != nullptr) row->drop_reason = "offline";
        continue;
      }
      if (config_.round_deadline_s > 0 &&
          client_time > config_.round_deadline_s) {
        // Straggler: the synchronous round closes without this client.
        ++result.straggler_drops;
        ++round_dropped;
        if (row != nullptr) row->drop_reason = "straggler";
        continue;
      }
      if (row != nullptr) {
        // The cost model charges comm_mb for the full up+down payload.
        row->bytes_up = static_cast<std::int64_t>(sys.comm_mb * 5e5);
        row->bytes_down = static_cast<std::int64_t>(sys.comm_mb * 5e5);
        row->train_mflops = static_cast<std::int64_t>(sys.train_gflops * 1e3);
        participant_row.push_back(client_rows.size() - 1);
      }
      participants.push_back(
          {c, round_rng.Fork(static_cast<std::uint64_t>(c))});
      round_time = std::max(round_time, client_time);
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
    obs::Span dispatch_span(tracer, "dispatch", "fl");
    dispatch_span.Arg("participants",
                      static_cast<std::int64_t>(participants.size()));
    // mhb-obs-phase: parallel — no registry calls inside the dispatch.
    core::ParallelFor(pool_.get(), participants.size(), [&](std::size_t i) {
      const int client_id = participants[i].client_id;
      const auto& sys =
          ctx_.assignments[static_cast<std::size_t>(client_id)].system;
      obs::Span client_span(tracer, "client", "client");
      client_span.Arg("client", static_cast<std::int64_t>(client_id));
      client_span.Arg("bytes_up", sys.comm_mb * 5e5);
      client_span.Arg("bytes_down", sys.comm_mb * 5e5);
      client_span.Arg("train_gflops", sys.train_gflops);
      const auto client_wall_start = std::chrono::steady_clock::now();
      {
        // Pool workers have no profiler installed; the guard scopes it to
        // this task so each client's op tree lands in the worker's sink.
        obs::ProfilerThreadGuard profiler_guard(prof);
        obs::ProfileScope profile_scope("client");
        algorithm_.RunClient(client_id, round, participants[i].rng);
      }
      if (reg != nullptr) {
        client_rows[participant_row[i]].wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - client_wall_start)
                .count();
      }
    });
    dispatch_span.End();
    // mhb-obs-phase: serial — dispatch joined; barrier merge and gauges.

    {
      obs::Span merge_span(tracer, "merge", "fl");
      algorithm_.FinishRound(round, round_rng);
    }
    sim_time += round_time;

    if (sim_spans) {
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
                    << " participants=" << participants.size()
                    << " offline=" << round_offline
                    << " dropped=" << round_dropped << " wall_ms=" << wall_ms;
    }

    // Divergence ledger, also after EndRound: the counter component must
    // hash the published totals, not a mid-round pending view.  Read-only
    // over engine state, so auditing cannot perturb the run it audits.
    if (config_.obs.det_audit != nullptr) {
      AuditRound(round);
    }

    // Live telemetry heartbeat, after EndRound so a poller that sees round
    // N in /status.json also sees round N's published totals.  Strictly
    // one-way: the exporter records progress, nothing flows back.
    if (config_.obs.live != nullptr) {
      config_.obs.live->NotifyProgress(round, sim_time);
    }

    if (config_.checkpoint_every > 0 &&
        (round + 1) % config_.checkpoint_every == 0) {
      // After the round barrier: all counts published (EndRound above when
      // a registry is attached), no client work in flight.
      obs::Span ckpt_span(tracer, "checkpoint", "fl");
      WriteCheckpoint(round + 1, sim_time, result);
    }
  }

  result.total_sim_time_s = sim_time;
  result.final_accuracy =
      result.curve.empty() ? evaluate_global() : result.curve.back().global_acc;

  // Stability: every client's personalized model on the shared test set.
  // Clients are independent given the final global state, so the loop
  // parallelizes; each client writes only its own slot.
  obs::Span stability_span(tracer, "stability_eval", "eval");
  algorithm_.PrepareEvaluation();
  result.client_accuracies.assign(static_cast<std::size_t>(num_clients), 0.0);
  core::ParallelFor(
      pool_.get(), static_cast<std::size_t>(num_clients), [&](std::size_t c) {
        obs::Span span(tracer, "client_eval", "eval");
        span.Arg("client", static_cast<std::int64_t>(c));
        obs::ProfilerThreadGuard profiler_guard(prof);
        obs::ProfileScope profile_scope("client_eval");
        result.client_accuracies[c] = EvaluateAccuracy(
            [&](const Tensor& x) {
              return algorithm_.ClientLogits(static_cast<int>(c), x);
            },
            ctx_.task->test, config_.stability_max_samples);
      });
  stability_span.End();
  if (reg != nullptr) reg->Flush();
  return result;
}

void FlEngine::WriteCheckpoint(int next_round, double sim_time,
                               const RunResult& partial) const {
  SnapshotWriter w;

  // "meta": the config identity the snapshot was produced under.  Restore
  // hard-checks the fields that change the partition / RNG stream / local
  // objective and warns on the rest (see RestoreCheckpoint).
  w.BeginSection("meta");
  w.WriteString(algorithm_.name());
  w.WriteU64(config_.seed);
  w.WriteI32(ctx_.num_clients());
  w.WriteI32(config_.rounds);
  w.WriteF64(config_.sample_fraction);
  w.WriteI32(config_.min_sampled);
  w.WriteI32(config_.local_epochs);
  w.WriteI32(config_.batch_size);
  w.WriteF64(config_.lr);
  w.WriteF64(config_.momentum);
  w.WriteF64(config_.weight_decay);
  w.WriteF64(config_.grad_clip);
  w.WriteU8(static_cast<std::uint8_t>(config_.optimizer));
  w.WriteU8(static_cast<std::uint8_t>(config_.lr_schedule));
  w.WriteI32(config_.lr_step);
  w.WriteF64(config_.lr_gamma);
  w.WriteF64(config_.lr_cosine_floor);
  w.WriteF64(config_.round_deadline_s);
  w.WriteI32(config_.eval_every);
  w.WriteI32(config_.eval_max_samples);
  w.WriteI32(config_.stability_max_samples);
  w.WriteU8(static_cast<std::uint8_t>(config_.partition));
  w.WriteF64(config_.dirichlet_alpha);
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
  // resume contract because min/max are idempotent over set unions.
  obs::Registry* const reg = config_.obs.registry;
  if (reg != nullptr) {
    w.BeginSection("obs");
    const auto counters = reg->Totals();
    std::map<std::string, std::int64_t> counter_deltas;
    for (const auto& [name, total] : counters) {
      auto it = obs_base_counters_.find(name);
      const std::int64_t base = it == obs_base_counters_.end() ? 0 : it->second;
      // Zero deltas are written too: the registered-name set is fixed
      // serially, so including them keeps the section size — and therefore
      // the checkpoint_bytes counter — independent of --threads (a serial
      // run's pool_tasks delta is 0, a pooled run's is not).  Importing a
      // zero delta is a no-op.
      counter_deltas[name] = total - base;
    }
    w.WriteU32(static_cast<std::uint32_t>(counter_deltas.size()));
    for (const auto& [name, delta] : counter_deltas) {
      w.WriteString(name);
      w.WriteI64(delta);
    }
    const auto hists = reg->Histograms();
    std::map<std::string, obs::Registry::HistogramData> hist_deltas;
    for (const auto& [name, data] : hists) {
      obs::Registry::HistogramData delta = data;
      auto it = obs_base_hists_.find(name);
      if (it != obs_base_hists_.end()) {
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
  w.WriteFile(path, &config_.obs);
  if (config_.obs.live != nullptr) {
    config_.obs.live->NotifyCheckpoint(next_round, path);
  }
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
    for (const auto& [name, total] : reg->Totals()) {
      if (!obs::DetAuditor::AuditableMetric(name)) continue;
      hc.UpdateString(name);
      hc.UpdateI64(total);
    }
    for (const auto& [name, data] : reg->Histograms()) {
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
  SnapshotReader r =
      SnapshotReader::FromFile(config_.resume_path, &config_.obs);

  r.EnterSection("meta");
  // Hard identity checks: anything that changes the data partition, the
  // RNG stream consumption pattern, or the local objective makes the saved
  // state meaningless to resume from.
  const std::string saved_algorithm = r.ReadString();
  MHB_CHECK_EQ(saved_algorithm, algorithm_.name())
      << "snapshot was written by a different algorithm";
  const std::uint64_t saved_seed = r.ReadU64();
  MHB_CHECK_EQ(saved_seed, config_.seed) << "snapshot seed mismatch";
  const int saved_clients = r.ReadI32();
  MHB_CHECK_EQ(saved_clients, ctx_.num_clients())
      << "snapshot client-count mismatch";
  const int saved_rounds = r.ReadI32();
  const double saved_sample_fraction = r.ReadF64();
  const int saved_min_sampled = r.ReadI32();
  const int saved_local_epochs = r.ReadI32();
  MHB_CHECK_EQ(saved_local_epochs, config_.local_epochs)
      << "snapshot local_epochs mismatch";
  const int saved_batch = r.ReadI32();
  MHB_CHECK_EQ(saved_batch, config_.batch_size)
      << "snapshot batch_size mismatch";
  const double saved_lr = r.ReadF64();
  const double saved_momentum = r.ReadF64();
  const double saved_weight_decay = r.ReadF64();
  const double saved_grad_clip = r.ReadF64();
  const auto saved_optimizer = static_cast<nn::OptimizerKind>(r.ReadU8());
  MHB_CHECK(saved_optimizer == config_.optimizer)
      << "snapshot optimizer mismatch";
  const auto saved_schedule = static_cast<LrScheduleKind>(r.ReadU8());
  const int saved_lr_step = r.ReadI32();
  const double saved_lr_gamma = r.ReadF64();
  const double saved_lr_floor = r.ReadF64();
  const double saved_deadline = r.ReadF64();
  const int saved_eval_every = r.ReadI32();
  const int saved_eval_max = r.ReadI32();
  const int saved_stability_max = r.ReadI32();
  const auto saved_partition = static_cast<PartitionKind>(r.ReadU8());
  MHB_CHECK(saved_partition == config_.partition)
      << "snapshot partition kind mismatch";
  const double saved_alpha = r.ReadF64();
  MHB_CHECK_EQ(saved_alpha, config_.dirichlet_alpha)
      << "snapshot dirichlet_alpha mismatch";
  r.ExpectSectionEnd();
  // Soft checks: these may legitimately change mid-campaign (warm starts,
  // constraint-switch studies) — the resumed run is then a new experiment,
  // not a bit-identical continuation, so say so loudly.
  if (saved_rounds != config_.rounds) {
    MHB_LOG_WARN << "resume: rounds changed (" << saved_rounds << " -> "
                 << config_.rounds << ")";
  }
  if (config_.lr_schedule == LrScheduleKind::kCosine) {
    // Cosine multipliers depend on the horizon; a changed horizon silently
    // re-shapes every remaining round's learning rate.
    MHB_CHECK_EQ(saved_rounds, config_.rounds)
        << "cosine schedule: cannot resume with a changed round count";
  }
  if (saved_sample_fraction != config_.sample_fraction ||
      saved_min_sampled != config_.min_sampled) {
    MHB_LOG_WARN << "resume: sampling config changed";
  }
  if (saved_lr != config_.lr || saved_momentum != config_.momentum ||
      saved_weight_decay != config_.weight_decay ||
      saved_grad_clip != config_.grad_clip ||
      saved_schedule != config_.lr_schedule ||
      saved_lr_step != config_.lr_step ||
      saved_lr_gamma != config_.lr_gamma ||
      saved_lr_floor != config_.lr_cosine_floor) {
    MHB_LOG_WARN << "resume: optimizer/schedule hyperparameters changed";
  }
  if (saved_deadline != config_.round_deadline_s) {
    MHB_LOG_WARN << "resume: round deadline changed (" << saved_deadline
                 << " -> " << config_.round_deadline_s << ")";
  }
  if (saved_eval_every != config_.eval_every ||
      saved_eval_max != config_.eval_max_samples ||
      saved_stability_max != config_.stability_max_samples) {
    MHB_LOG_WARN << "resume: evaluation config changed";
  }

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
