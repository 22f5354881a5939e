// The tentpole invariant of the parallel round executor: for every
// heterogeneity level, multi-threaded execution produces a RunResult
// bit-identical to the serial reference engine — same accuracy curve, same
// simulated clock, same per-client accuracies, same offline/straggler
// counters — because all order-sensitive randomness is drawn serially and
// staged updates merge in dispatch order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "support/live_files.h"

namespace mhbench::fl {
namespace {

struct Case {
  std::string algorithm;
  std::string task;
};

class ParallelDeterminismTest : public ::testing::TestWithParam<Case> {};

// Every algorithm in the zoo: the homogeneous baseline, the width family
// (static and rolling ladders, Fjord's stochastic draws from the per-client
// Rng in ClientSpec — which catches any shift of the forked streams), the
// depth family (DepthFL's ucihar transformer path included), and both
// topology methods (personal prototype models; shared distillation group
// models on the eval path).
INSTANTIATE_TEST_SUITE_P(
    Levels, ParallelDeterminismTest,
    ::testing::ValuesIn(std::vector<Case>{
        {"fedavg", "cifar10"},
        {"fjord", "cifar10"},
        {"sheterofl", "cifar10"},
        {"fedrolex", "cifar10"},
        {"depthfl", "ucihar"},
        {"inclusivefl", "cifar10"},
        {"fedepth", "cifar10"},
        {"fedproto", "cifar10"},
        {"fedet", "cifar10"},
    }),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.algorithm;
    });

// Assignments exercising every skip path: a capacity ladder, flaky devices
// (availability < 1 -> offline skips), and a compute-time spread crossing
// the round deadline (-> straggler drops).
std::vector<ClientAssignment> HeterogeneousAssignments(int n) {
  std::vector<ClientAssignment> assign =
      UniformCapacityAssignments(n, {0.25, 0.5, 0.75, 1.0});
  for (int i = 0; i < n; ++i) {
    auto& a = assign[static_cast<std::size_t>(i)];
    a.arch_index = i;  // topology diversity for fedproto/fedet
    a.system.compute_time_s = 5.0 + 7.0 * (i % 4);  // 5..26 s
    a.system.comm_time_s = 2.0;
    a.system.availability = (i % 3 == 0) ? 0.5 : 1.0;
    // Telemetry-only fields (never feed back into the simulated clock):
    // give the counters something non-zero to aggregate.
    a.system.comm_mb = 4.0 + i;
    a.system.train_gflops = 1.0 + 0.5 * i;
    // Device-tier taxonomy (DESIGN.md §5j): the tier-keyed `<base>@<tier>`
    // rollups land in the same Totals() maps the instrumented sweep below
    // compares, so per-tier determinism is enforced for every algorithm.
    a.system.device_tier =
        (i % 3 == 0) ? "cpu" : (i % 3 == 1) ? "mem4g" : "mem16g";
  }
  return assign;
}

RunResult RunWithThreads(const Case& c, const data::Task& task,
                         int num_threads, obs::ObsConfig obs = {}) {
  const auto tm = models::MakeTaskModels(c.task);
  auto alg = algorithms::MakeAlgorithm(c.algorithm, tm);

  FlConfig cfg;
  cfg.rounds = 4;
  cfg.sample_fraction = 0.8;  // most of the population, every round
  cfg.eval_every = 2;
  cfg.eval_max_samples = 96;
  cfg.stability_max_samples = 48;
  cfg.round_deadline_s = 25.0;  // compute 26 + comm 2 exceeds it
  cfg.num_threads = num_threads;

  // Every instrumented run in this suite publishes metrics.prom and
  // status.json from its round sink, as the CLI does, so the bit-identity
  // assertions below double as proof that live telemetry cannot perturb
  // any algorithm at any thread count (obs/live.h).
  testsupport::LiveFilesSink live(obs.registry,
                                  c.algorithm + "-parallel-determinism",
                                  cfg.rounds);
  cfg.obs = obs;

  FlEngine engine(task, cfg, HeterogeneousAssignments(6), *alg);
  RunResult result = engine.Run();
  if (obs.registry != nullptr) {
    EXPECT_EQ(live.publishes(), cfg.rounds);
  }
  return result;
}

// Bit-identical comparison: exact double equality, field by field.
void ExpectIdentical(const RunResult& serial, const RunResult& parallel,
                     int threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(threads));
  EXPECT_EQ(serial.final_accuracy, parallel.final_accuracy);
  EXPECT_EQ(serial.total_sim_time_s, parallel.total_sim_time_s);
  EXPECT_EQ(serial.straggler_drops, parallel.straggler_drops);
  EXPECT_EQ(serial.offline_skips, parallel.offline_skips);
  EXPECT_EQ(serial.total_participations, parallel.total_participations);

  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(serial.curve[i].round, parallel.curve[i].round);
    EXPECT_EQ(serial.curve[i].sim_time_s, parallel.curve[i].sim_time_s);
    EXPECT_EQ(serial.curve[i].global_acc, parallel.curve[i].global_acc);
  }

  ASSERT_EQ(serial.client_accuracies.size(),
            parallel.client_accuracies.size());
  for (std::size_t i = 0; i < serial.client_accuracies.size(); ++i) {
    EXPECT_EQ(serial.client_accuracies[i], parallel.client_accuracies[i])
        << "client " << i;
  }
}

TEST_P(ParallelDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const Case c = GetParam();
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask(c.task, tcfg);

  const RunResult serial = RunWithThreads(c, task, 1);

  // The scenario must actually exercise the skip paths it claims to cover.
  EXPECT_GT(serial.offline_skips, 0) << "availability<1 never skipped";
  EXPECT_GT(serial.straggler_drops, 0) << "deadline never dropped";
  EXPECT_FALSE(serial.curve.empty());
  EXPECT_EQ(serial.client_accuracies.size(), 6u);

  ExpectIdentical(serial, RunWithThreads(c, task, 2), 2);
  ExpectIdentical(serial, RunWithThreads(c, task, 4), 4);
}

// Observability must be pure observation: with a tracer (wall and
// sim-clock tracks) + counter registry attached, every thread count still
// produces a RunResult bit-identical to the uninstrumented serial
// reference, and the counter totals themselves are identical across thread
// counts (per-thread sinks merge commutative int64 additions at the round
// barrier).
TEST(ParallelDeterminismTest, InstrumentedRunsStayBitIdentical) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const Case c{"fedrolex", "cifar10"};

  const RunResult bare = RunWithThreads(c, task, 1);

  std::map<std::string, std::int64_t> reference_totals;
  for (const int threads : {1, 2, 4}) {
    obs::Tracer tracer;
    obs::Registry registry;
    obs::ObsConfig obs;
    obs.tracer = &tracer;
    obs.registry = &registry;
    const RunResult traced = RunWithThreads(c, task, threads, obs);
    ExpectIdentical(bare, traced, threads);

    // Spans were actually collected on both clocks.
    const auto events = tracer.Snapshot();
    EXPECT_FALSE(events.empty());
    bool has_wall = false, has_sim = false;
    for (const auto& e : events) {
      if (e.pid == obs::Tracer::kWallPid) has_wall = true;
      if (e.pid == obs::Tracer::kSimPid) has_sim = true;
    }
    EXPECT_TRUE(has_wall);
    EXPECT_TRUE(has_sim);

    // Counter totals are thread-count independent.  Wall-clock gauges
    // (wall_ms, pool idle) legitimately differ, and pool_tasks counts
    // helper tasks (a function of the worker count), so drop it too.
    auto totals = registry.SnapshotTotals().counters;
    totals.erase("pool_tasks");
    EXPECT_GT(totals.at("clients_trained"), 0);
    EXPECT_GT(totals.at("bytes_up"), 0);
    EXPECT_GT(totals.at("clients_dropped"), 0);
    EXPECT_GT(totals.at("gemm_flops"), 0);
    // The tier-keyed rollups are present and partition the untiered total
    // (tier_rollup_test covers the full contract; this sweep proves it
    // holds under every algorithm in the zoo).
    EXPECT_EQ(totals.at("clients_trained@cpu") +
                  totals.at("clients_trained@mem4g") +
                  totals.at("clients_trained@mem16g"),
              totals.at("clients_trained"));
    if (threads == 1) {
      reference_totals = totals;
    } else {
      EXPECT_EQ(totals, reference_totals)
          << "counter totals diverged at num_threads=" << threads;
    }
    EXPECT_EQ(registry.rounds().size(), 4u);
  }
}

// Kernel-layer observability on a conv model: sheterofl/cifar10 trains
// ResNet-like sub-models, so every client step runs im2col + packed GEMM
// through the per-thread scratch arenas.  The exact gemm_flops count (an
// integer, 2*m*n*k per call) and all metrics must be bit-identical at 1, 2,
// and 4 threads — the kernels are single-threaded per client, so thread
// count must not leak into either results or work accounting.
TEST(ParallelDeterminismTest, KernelCountersDeterministicOnConvModel) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const Case c{"sheterofl", "cifar10"};

  RunResult reference;
  std::int64_t reference_flops = 0;
  for (const int threads : {1, 2, 4}) {
    obs::Registry registry;
    obs::ObsConfig obs;
    obs.registry = &registry;
    const RunResult result = RunWithThreads(c, task, threads, obs);
    const std::int64_t flops = registry.Total("gemm_flops");
    EXPECT_GT(flops, 0);
    if (threads == 1) {
      reference = result;
      reference_flops = flops;
    } else {
      ExpectIdentical(reference, result, threads);
      EXPECT_EQ(flops, reference_flops)
          << "gemm flop accounting diverged at num_threads=" << threads;
    }
  }
}

// Per-op profiler determinism: every client runs wholly on one thread with
// a deterministic scope structure, so the merged per-op counts and GEMM
// FLOP attributions must be bit-identical across thread counts.  Wall time
// and heap allocations are excluded (clock noise; per-thread tensor pools
// warm up independently), and attaching the profiler must not perturb the
// training results.  Histogram bucket totals get the same guarantee: the
// observed values are simulated/deterministic quantities per client.
TEST(ParallelDeterminismTest, ProfilerAttributionDeterministicAcrossThreads) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  // The default objective plus every algorithm that supplies its own to
  // fl::TrainLocal: all of them attribute training to the same scopes.
  for (const char* algorithm :
       {"sheterofl", "depthfl", "fedepth", "fedproto"}) {
    SCOPED_TRACE(algorithm);
    const Case c{algorithm, "cifar10"};
    const RunResult bare = RunWithThreads(c, task, 1);

    std::map<std::string, std::int64_t> ref_counts;
    std::map<std::string, std::int64_t> ref_flops;
    obs::Registry::HistogramData ref_bytes_hist;
    for (const int threads : {1, 2, 4}) {
      obs::Registry registry;
      obs::Profiler profiler;
      obs::ObsConfig obs;
      obs.registry = &registry;
      obs.profiler = &profiler;
      const RunResult profiled = RunWithThreads(c, task, threads, obs);
      ExpectIdentical(bare, profiled, threads);

      std::map<std::string, std::int64_t> counts;
      std::map<std::string, std::int64_t> flops;
      for (const auto& [name, stats] : profiler.TotalsByName()) {
        counts[name] = stats.count;
        flops[name] = stats.gemm_flops;
      }
      ASSERT_GT(counts.size(), 0u);
      for (const char* scope :
           {"local_train", "forward", "backward", "opt_step"}) {
        EXPECT_GT(counts[scope], 0) << scope;
      }
      EXPECT_GT(counts["conv2d_fwd"], 0);
      EXPECT_GT(flops["conv2d_fwd"], 0);
      // Layer scopes nest inside forward/backward which nest inside the
      // per-client scope: the forward count can't exceed its parent-level
      // op.
      EXPECT_GE(counts["forward"], counts["local_train"]);

      const obs::Registry::HistogramData bytes_hist =
          registry.HistogramTotals("client_bytes_up");
      EXPECT_GT(bytes_hist.count(), 0);
      if (threads == 1) {
        ref_counts = counts;
        ref_flops = flops;
        ref_bytes_hist = bytes_hist;
      } else {
        EXPECT_EQ(counts, ref_counts)
            << "per-op counts diverged at num_threads=" << threads;
        EXPECT_EQ(flops, ref_flops)
            << "per-op FLOP attribution diverged at num_threads=" << threads;
        EXPECT_EQ(bytes_hist.buckets, ref_bytes_hist.buckets)
            << "histogram buckets diverged at num_threads=" << threads;
        EXPECT_EQ(bytes_hist.sum, ref_bytes_hist.sum);
        EXPECT_EQ(bytes_hist.min, ref_bytes_hist.min);
        EXPECT_EQ(bytes_hist.max, ref_bytes_hist.max);
      }
    }
  }
}

// Determinism auditor ledger (obs/det_audit.h, DESIGN.md §5k): on a conv
// algorithm the per-round component hashes — RNG stream, algorithm
// SaveState bytes, auditable counter/histogram totals — and the running
// chain must be identical at 1, 2 and 4 threads.  This is the in-process
// version of the contract mhb_bisect.py checks between ledger files, and
// it subsumes the RunResult comparison: the model hash covers every
// parameter byte, not just the eval-time accuracy summary.
TEST(ParallelDeterminismTest, AuditLedgerIdenticalAcrossThreadCounts) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const Case c{"sheterofl", "cifar10"};

  std::vector<obs::DetAuditor::Round> reference;
  for (const int threads : {1, 2, 4}) {
    obs::Registry registry;
    obs::DetAuditor audit;  // in-memory ledger
    obs::ObsConfig obs;
    obs.registry = &registry;
    obs.det_audit = &audit;
    RunWithThreads(c, task, threads, obs);
    ASSERT_EQ(audit.rounds().size(), 4u);
    // Each round actually audited something: the counter component moves
    // away from the empty-hash once clients train.
    EXPECT_NE(audit.rounds()[0].components[2].second,
              obs::DetHash().value());
    if (threads == 1) {
      reference = audit.rounds();
      continue;
    }
    for (std::size_t r = 0; r < reference.size(); ++r) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) + " round " +
                   std::to_string(r));
      EXPECT_EQ(audit.rounds()[r].chain, reference[r].chain);
      ASSERT_EQ(audit.rounds()[r].components.size(),
                reference[r].components.size());
      for (std::size_t k = 0; k < reference[r].components.size(); ++k) {
        EXPECT_EQ(audit.rounds()[r].components[k].first,
                  reference[r].components[k].first);
        EXPECT_EQ(audit.rounds()[r].components[k].second,
                  reference[r].components[k].second)
            << "component " << reference[r].components[k].first;
      }
    }
  }
}

// Fed-ET and FedProto evaluate through shared models from many threads at
// once: Fed-ET's teacher fan-out, the batch-parallel global eval, and the
// lock-free stability eval.  The text tasks route those paths through the
// Embedding, attention and LayerNorm Infer kernels; results and the
// det-audit ledger must match the serial run at 2 and 4 threads.
class TopologyEvalDeterminismTest : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(
    TextTasks, TopologyEvalDeterminismTest,
    ::testing::ValuesIn(std::vector<Case>{
        {"fedet", "agnews"},
        {"fedproto", "agnews"},
        {"fedet", "stackoverflow"},
        {"fedproto", "stackoverflow"},
    }),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.algorithm + "_" + info.param.task;
    });

TEST_P(TopologyEvalDeterminismTest, ResultsAndLedgerIdenticalAcrossThreads) {
  const Case c = GetParam();
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask(c.task, tcfg);

  RunResult reference;
  std::vector<obs::DetAuditor::Round> reference_ledger;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    obs::Registry registry;
    obs::DetAuditor audit;
    obs::ObsConfig obs;
    obs.registry = &registry;
    obs.det_audit = &audit;
    const RunResult result = RunWithThreads(c, task, threads, obs);
    ASSERT_EQ(audit.rounds().size(), 4u);
    if (threads == 1) {
      EXPECT_FALSE(result.curve.empty());
      reference = result;
      reference_ledger = audit.rounds();
      continue;
    }
    ExpectIdentical(reference, result, threads);
    for (std::size_t r = 0; r < reference_ledger.size(); ++r) {
      EXPECT_EQ(audit.rounds()[r].chain, reference_ledger[r].chain)
          << "round " << r;
      EXPECT_EQ(audit.rounds()[r].components, reference_ledger[r].components)
          << "round " << r;
    }
  }
}

// The refactor must not have changed the serial reference itself: two
// serial runs of the same seed agree (guards the phase-1 draw order).
TEST(ParallelDeterminismTest, SerialRunIsReproducible) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const Case c{"sheterofl", "cifar10"};
  const RunResult a = RunWithThreads(c, task, 1);
  const RunResult b = RunWithThreads(c, task, 1);
  ExpectIdentical(a, b, 1);
}

}  // namespace
}  // namespace mhbench::fl
