// Live telemetry files (obs/live.h, DESIGN.md §5h): rendering goldens,
// the status.json schema, and — the part that matters most — proof that
// publishing metrics.prom + status.json from the round sink perturbs
// neither results nor counter totals at any thread count, and that each
// published status.json describes the round just completed.
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/live.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "support/live_files.h"
#include "support/temp_dir.h"

namespace mhbench::obs {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream f(path);
  std::stringstream s;
  s << f.rdbuf();
  return s.str();
}

// A registry carrying one flushed round with known counters, a histogram
// and gauges — the fixture behind the rendering goldens.
void FillRegistry(Registry* reg) {
  reg->AddNamed("bytes_up", 1500);
  reg->AddNamed("clients_trained", 3);
  for (int i = 0; i < 3; ++i) reg->ObserveNamed("lat_us", 100);
  reg->SetGauge("global_acc", 0.5);
  reg->SetGauge("sim_time_s", 12.5);
  reg->EndRound("fedavg", 0);
}

TEST(RegistrySnapshotTest, SeesTotalsAndTheLastCutRound) {
  Registry reg;
  const Registry::CounterId id = reg.Counter("bytes_up");
  reg.Add(id, 999);

  // No round has been cut yet.
  Registry::LiveSnapshot snap = reg.SnapshotTotals();
  EXPECT_EQ(snap.last_round, -1);
  EXPECT_EQ(snap.rounds_completed, 0u);
  EXPECT_TRUE(snap.accuracy.empty());

  reg.SetGauge("global_acc", 0.25);
  reg.SetGauge("sim_time_s", 3.5);
  reg.EndRound("fedavg", 0);
  snap = reg.SnapshotTotals();
  EXPECT_EQ(snap.counters.at("bytes_up"), 999);
  EXPECT_EQ(snap.last_round, 0);
  EXPECT_EQ(snap.last_run, "fedavg");
  EXPECT_EQ(snap.rounds_completed, 1u);
  EXPECT_DOUBLE_EQ(snap.sim_time_s, 3.5);
  ASSERT_EQ(snap.accuracy.size(), 1u);
  EXPECT_EQ(snap.accuracy[0].first, 0);
  EXPECT_DOUBLE_EQ(snap.accuracy[0].second, 0.25);

  // Rounds without an evaluation add no accuracy point.
  reg.Add(id, 1);
  reg.EndRound("fedavg", 1);
  snap = reg.SnapshotTotals();
  EXPECT_EQ(snap.counters.at("bytes_up"), 1000);
  EXPECT_EQ(snap.last_round, 1);
  EXPECT_EQ(snap.rounds_completed, 2u);
  EXPECT_EQ(snap.accuracy.size(), 1u);
}

// A CLI run is a suite sharing one registry: the fedavg-small baseline's
// rounds 0-3, then the requested algorithm's rounds 0-3.  The live files
// report the current engine run, so rounds_completed reads 4, not the 8
// rows the registry holds.
TEST(RegistrySnapshotTest, RoundsCompletedCountsTheRunOfTheLastRow) {
  Registry reg;
  for (int r = 0; r < 4; ++r) reg.EndRound("fedavg-small", r);
  EXPECT_EQ(reg.SnapshotTotals().rounds_completed, 4u);
  for (int r = 0; r < 4; ++r) {
    reg.EndRound("sheterofl", r);
    const Registry::LiveSnapshot snap = reg.SnapshotTotals();
    EXPECT_EQ(snap.rounds_completed, static_cast<std::size_t>(r + 1));
    EXPECT_EQ(snap.last_run, "sheterofl");
  }
  ASSERT_EQ(reg.rounds().size(), 8u);
  const Registry::LiveSnapshot snap = reg.SnapshotTotals();
  EXPECT_NE(MetricsText(snap).find("\nmhb_rounds_completed 4\n"),
            std::string::npos);
  EXPECT_NE(StatusJson(snap, "suite", 4).find("\"rounds_completed\": 4,\n"),
            std::string::npos);
}

// The snapshot lists a declared tier's histograms while nothing has been
// observed in them (the det-audit ledger hashes every registered name);
// metrics.prom and status.json leave the empty ones out.
TEST(RegistrySnapshotTest, ListsEmptyHistogramsThatTheLiveFilesSkip) {
  Registry reg;
  reg.DeclareClientTiers({"mem16g"});
  reg.AddNamed("bytes_up", 1500);
  reg.EndRound("fedavg", 0);
  const Registry::LiveSnapshot snap = reg.SnapshotTotals();
  for (const char* name :
       {"client_wall_us", "client_bytes_up@mem16g",
        "client_train_mflops@mem16g"}) {
    ASSERT_EQ(snap.hists.count(name), 1u) << name;
    EXPECT_TRUE(snap.hists.at(name).empty()) << name;
  }

  const std::string metrics = MetricsText(snap);
  EXPECT_EQ(metrics.find("mhb_hist_"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("mhb_counter_bytes_up 1500\n"), std::string::npos);
  const std::string status = StatusJson(snap, "", 0);
  EXPECT_NE(status.find("\"histograms\": {\n  },\n"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"mem16g\": {\"counters\": {"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"histograms\": {}}"), std::string::npos) << status;
  EXPECT_EQ(status.find("client_wall_us"), std::string::npos) << status;
}

TEST(RegistrySnapshotTest, RoundSinkStreamsPublishedRows) {
  Registry reg;
  std::vector<Registry::RoundRow> seen;
  std::vector<std::size_t> rounds_visible_in_sink;
  reg.SetRoundSink([&](const Registry::RoundRow& row) {
    seen.push_back(row);
    // The sink runs outside the registry lock, so it may call back into
    // serial-phase accessors — exactly what the rounds.csv streamer does.
    rounds_visible_in_sink.push_back(reg.rounds().size());
  });

  reg.AddNamed("bytes_up", 10);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 5);
  reg.EndRound("fedavg", 1);
  reg.SetRoundSink(nullptr);
  reg.EndRound("fedavg", 2);  // uninstalled: not streamed

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].round, 0);
  EXPECT_EQ(seen[0].counters.at("bytes_up"), 10);
  EXPECT_EQ(seen[1].round, 1);
  EXPECT_EQ(seen[1].counters.at("bytes_up"), 5);
  EXPECT_EQ(rounds_visible_in_sink, (std::vector<std::size_t>{1u, 2u}));
}

TEST(RegistrySnapshotTest, StreamedRoundsCsvMatchesFinalRewrite) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  Registry reg;
  reg.SetRoundSink([&](const Registry::RoundRow&) {
    WriteRoundsCsv(dir.path, reg);
  });
  reg.AddNamed("bytes_up", 10);
  reg.SetGauge("global_acc", 0.5);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 7);
  reg.EndRound("fedavg", 1);
  reg.SetRoundSink(nullptr);

  std::ifstream streamed_f(dir.File("rounds.csv"));
  std::stringstream streamed;
  streamed << streamed_f.rdbuf();
  ASSERT_FALSE(streamed.str().empty());

  // The end-of-run rewrite must be byte-identical to the last streamed
  // state: streaming only changes when the file appears, not what it says.
  const testsupport::TempDir dir2 = testsupport::MakeTempDir();
  WriteRoundsCsv(dir2.path, reg);
  std::ifstream final_f(dir2.File("rounds.csv"));
  std::stringstream final_s;
  final_s << final_f.rdbuf();
  EXPECT_EQ(streamed.str(), final_s.str());
}

TEST(LiveFilesTest, MetricsTextGolden) {
  Registry reg;
  FillRegistry(&reg);

  const std::string want =
      "# mhbench live telemetry (Prometheus text exposition 0.0.4)\n"
      "# TYPE mhb_up gauge\nmhb_up 1\n"
      "# TYPE mhb_rounds_completed counter\nmhb_rounds_completed 1\n"
      "# TYPE mhb_last_round gauge\nmhb_last_round 0\n"
      "# TYPE mhb_sim_time_seconds gauge\nmhb_sim_time_seconds 12.5\n"
      "# TYPE mhb_global_accuracy gauge\nmhb_global_accuracy 0.5\n"
      "# TYPE mhb_counter_bytes_up counter\nmhb_counter_bytes_up 1500\n"
      "# TYPE mhb_counter_clients_trained counter\n"
      "mhb_counter_clients_trained 3\n"
      "# TYPE mhb_hist_lat_us summary\n"
      "mhb_hist_lat_us{quantile=\"0.5\"} 100\n"
      "mhb_hist_lat_us{quantile=\"0.95\"} 100\n"
      "mhb_hist_lat_us{quantile=\"0.99\"} 100\n"
      "mhb_hist_lat_us_sum 300\n"
      "mhb_hist_lat_us_count 3\n";
  EXPECT_EQ(MetricsText(reg.SnapshotTotals()), want);
}

TEST(LiveFilesTest, StatusJsonCarriesTheSchema) {
  Registry reg;
  FillRegistry(&reg);
  reg.AddNamed("checkpoint_writes", 1);

  const std::string json =
      StatusJson(reg.SnapshotTotals(), "cifar100-none-fedavg-seed7", 8);
  EXPECT_NE(json.find("\"run_id\": \"cifar100-none-fedavg-seed7\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"run\": \"fedavg\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"last_round\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"rounds_total\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"sim_time_s\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\": [[0, 0.5]]"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_up\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_writes\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\": {\"count\":3,\"sum\":300"),
            std::string::npos);
  EXPECT_NE(json.find("\"global_acc\": 0.5"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json.find("\"checkpoint\""), std::string::npos);
}

// Tier-keyed registry entries (`<base>@<tier>`, DESIGN.md §5j) and how the
// two documents present them: metrics.prom folds the tier into a
// Prometheus label on the base family (one TYPE header per family,
// untiered lines byte-identical to the tier-free world — MetricsTextGolden
// above still pins that); status.json keeps its flat counters/histograms
// maps tier-free and regroups the rollups under a "tiers" object.
TEST(LiveFilesTest, TierKeyedEntriesRenderAsLabelsAndStatusTiers) {
  Registry reg;
  reg.AddNamed("bytes_up", 1500);
  reg.AddNamed("bytes_up@cpu", 500);
  reg.AddNamed("bytes_up@mem4g", 1000);
  reg.ObserveNamed("lat_us@cpu", 100);
  reg.EndRound("fedavg", 0);
  const Registry::LiveSnapshot snap = reg.SnapshotTotals();

  const std::string metrics = MetricsText(snap);
  EXPECT_NE(metrics.find("# TYPE mhb_counter_bytes_up counter\n"
                         "mhb_counter_bytes_up 1500\n"
                         "mhb_counter_bytes_up{tier=\"cpu\"} 500\n"
                         "mhb_counter_bytes_up{tier=\"mem4g\"} 1000\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE mhb_hist_lat_us summary\n"
                         "mhb_hist_lat_us{tier=\"cpu\",quantile=\"0.5\"} 100"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("mhb_hist_lat_us_sum{tier=\"cpu\"} 100"),
            std::string::npos);
  EXPECT_NE(metrics.find("mhb_hist_lat_us_count{tier=\"cpu\"} 1"),
            std::string::npos);
  EXPECT_EQ(metrics.find('@'), std::string::npos)
      << "raw @-names leaked into the Prometheus exposition";

  const std::string status = StatusJson(snap, "", 0);
  EXPECT_NE(status.find("\"bytes_up\": 1500"), std::string::npos) << status;
  EXPECT_EQ(status.find('@'), std::string::npos)
      << "flat status.json maps must stay tier-free";
  EXPECT_NE(status.find("\"tiers\": {"), std::string::npos);
  EXPECT_NE(status.find("\"cpu\": {\"counters\": {\"bytes_up\": 500}, "
                        "\"histograms\": {\"lat_us\": {\"count\":1"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"mem4g\": {\"counters\": {\"bytes_up\": 1000}"),
            std::string::npos)
      << status;
}

fl::RunResult RunFedAvg(const data::Task& task, int threads,
                        Registry* registry) {
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  fl::FlConfig cfg;
  cfg.rounds = 2;
  cfg.sample_fraction = 1.0;
  cfg.eval_every = 1;
  cfg.eval_max_samples = 48;
  cfg.stability_max_samples = 24;
  cfg.num_threads = threads;
  cfg.obs.registry = registry;
  fl::FlEngine engine(task, cfg,
                      fl::UniformCapacityAssignments(4, {0.5, 1.0}), *alg);
  return engine.Run();
}

data::Task SmallTask() {
  data::TaskConfig tcfg;
  tcfg.train_samples = 120;
  tcfg.test_samples = 60;
  tcfg.num_clients = 4;
  return data::MakeTask("cifar10", tcfg);
}

// The contract the publisher must honor: a real engine run whose round
// sink publishes metrics.prom + status.json produces results and counter
// totals bit-identical to a run without it, at every thread count.
TEST(LiveDeterminismTest, PublishingSinkDoesNotPerturbEngineRuns) {
  const data::Task task = SmallTask();
  // pool_tasks tracks the pool size, so it is left out of the comparison.
  auto comparable_totals = [](const Registry& reg) {
    auto totals = reg.SnapshotTotals().counters;
    totals.erase("pool_tasks");
    return totals;
  };
  Registry bare_registry;
  const fl::RunResult bare = RunFedAvg(task, 1, &bare_registry);
  const auto bare_totals = comparable_totals(bare_registry);
  EXPECT_GT(bare_totals.at("clients_trained"), 0);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    Registry registry;
    testsupport::LiveFilesSink live(&registry, "live-determinism", 2);
    const fl::RunResult result = RunFedAvg(task, threads, &registry);
    EXPECT_EQ(live.publishes(), 2);

    // Bit-identical results...
    EXPECT_EQ(bare.final_accuracy, result.final_accuracy);
    EXPECT_EQ(bare.total_sim_time_s, result.total_sim_time_s);
    EXPECT_EQ(bare.total_participations, result.total_participations);
    ASSERT_EQ(bare.curve.size(), result.curve.size());
    for (std::size_t i = 0; i < bare.curve.size(); ++i) {
      EXPECT_EQ(bare.curve[i].global_acc, result.curve[i].global_acc);
      EXPECT_EQ(bare.curve[i].sim_time_s, result.curve[i].sim_time_s);
    }
    // ...and totals.
    EXPECT_EQ(comparable_totals(registry), bare_totals)
        << "publishing perturbed totals at num_threads=" << threads;
  }
}

// Each round's files describe that round: read back inside the sink,
// right after EndRound, they hold the renderers' bytes, status.json names
// the round just completed and metrics.prom agrees.
TEST(LiveDeterminismTest, StatusJsonDescribesEachRoundAtItsBarrier) {
  const data::Task task = SmallTask();
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  Registry registry;
  std::vector<int> seen_rounds;
  registry.SetRoundSink([&](const Registry::RoundRow& row) {
    WriteLiveFiles(dir.path, registry, "per-round", 2);
    const std::string status = ReadAll(dir.File("status.json"));
    const std::string metrics = ReadAll(dir.File("metrics.prom"));
    const Registry::LiveSnapshot snap = registry.SnapshotTotals();
    EXPECT_EQ(status, StatusJson(snap, "per-round", 2));
    EXPECT_EQ(metrics, MetricsText(snap));
    EXPECT_NE(status.find("\"last_round\": " + std::to_string(row.round) +
                          ",\n"),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("\"rounds_completed\": " +
                          std::to_string(row.round + 1) + ",\n"),
              std::string::npos)
        << status;
    EXPECT_NE(metrics.find("\nmhb_last_round " + std::to_string(row.round) +
                           "\n"),
              std::string::npos)
        << metrics;
    seen_rounds.push_back(row.round);
  });
  RunFedAvg(task, 2, &registry);
  registry.SetRoundSink(nullptr);
  EXPECT_EQ(seen_rounds, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace mhbench::obs
