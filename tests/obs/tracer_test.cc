// Observability layer: span collection/nesting, JSON escaping and export,
// the disabled (no tracer in the context) zero-cost path, the counter registry's
// barrier-published totals, client-row accounting and round snapshots, and
// the run-manifest writer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/thread_pool.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::obs {
namespace {

// The context that routes this thread's spans into `tracer`.
ObsConfig TracingTo(Tracer& tracer) {
  ObsConfig obs;
  obs.tracer = &tracer;
  return obs;
}

TEST(TracerTest, RecordsNestedSpansWithinParentBounds) {
  Tracer tracer;
  const ObsConfig obs = TracingTo(tracer);
  {
    ObsScope scope(&obs);
    Span parent("parent", "test");
    {
      Span child("child", "test");
      child.Arg("k", static_cast<std::int64_t>(7));
    }
  }
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Events complete in child-first order; look them up by name.
  const auto& child = events[0].name == "child" ? events[0] : events[1];
  const auto& parent = events[0].name == "parent" ? events[0] : events[1];
  ASSERT_EQ(child.name, "child");
  ASSERT_EQ(parent.name, "parent");
  // The child span is contained within the parent's interval.
  EXPECT_LE(parent.ts_us, child.ts_us);
  EXPECT_GE(parent.ts_us + parent.dur_us, child.ts_us + child.dur_us);
  // Same thread -> same lane.
  EXPECT_EQ(parent.tid, child.tid);
  ASSERT_EQ(child.num_args.size(), 1u);
  EXPECT_EQ(child.num_args[0].first, "k");
  EXPECT_EQ(child.num_args[0].second, "7");
}

TEST(TracerTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(TracerTest, ChromeJsonContainsEscapedNamesAndBothTracks) {
  Tracer tracer;
  const ObsConfig obs = TracingTo(tracer);
  {
    ObsScope scope(&obs);
    Span s("quoted \"name\"", "cat");
    s.Arg("note", std::string("with\nnewline"));
  }
  tracer.RecordSim("sim span", "sim", 1.5, 2.0, 3);
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("with\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // Sim timestamps are simulated seconds in microseconds.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(TracerTest, JsonlHasOneObjectPerLine) {
  Tracer tracer;
  const ObsConfig obs = TracingTo(tracer);
  {
    ObsScope scope(&obs);
    { Span a("a", "t"); }
    { Span b("b", "t"); }
  }
  std::istringstream lines(tracer.ToJsonl());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(TracerTest, DisabledSpanIsInert) {
  // The disabled state is a context without a tracer: construction must
  // not allocate, record, or crash, and all member calls are no-ops.
  Span span("never", "never");
  EXPECT_FALSE(static_cast<bool>(span));
  span.Arg("k", static_cast<std::int64_t>(1));
  span.Arg("d", 2.0);
  span.Arg("s", std::string("x"));
  span.End();
  span.End();  // idempotent

  // A context whose other collectors are set is the same disabled state.
  const ObsConfig no_tracer;
  ObsScope scope(&no_tracer);
  // A tight loop of disabled spans must complete trivially (zero events
  // anywhere to record them, no tracer to observe them).
  for (int i = 0; i < 100000; ++i) {
    Span s("hot", "loop");
    EXPECT_FALSE(static_cast<bool>(s));
    s.Arg("i", static_cast<std::int64_t>(i));
  }
}

TEST(TracerTest, SpanEndBeforeDestructionRecordsOnce) {
  Tracer tracer;
  const ObsConfig obs = TracingTo(tracer);
  ObsScope scope(&obs);
  Span s("once", "t");
  s.End();
  s.End();
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(TracerTest, ConcurrentSpansLandInDistinctLanes) {
  Tracer tracer;
  const ObsConfig obs = TracingTo(tracer);
  ObsScope scope(&obs);
  core::ThreadPool pool(3);
  core::ParallelFor(&pool, 64, [&](std::size_t i) {
    Span s("work", "mt");
    s.Arg("i", static_cast<std::int64_t>(i));
  });
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 4);  // 3 workers + the calling thread
  }
}

TEST(RegistryTest, CountersAccumulateAndSnapshotPerRound) {
  Registry reg;
  const auto bytes = reg.Counter("bytes");
  const auto drops = reg.Counter("drops");
  reg.Add(bytes, 100);
  reg.Add(drops, 1);
  reg.SetGauge("acc", 0.5);
  reg.EndRound("alg", 0);
  reg.Add(bytes, 50);
  reg.EndRound("alg", 1);

  EXPECT_EQ(reg.Total("bytes"), 150);
  EXPECT_EQ(reg.Total("drops"), 1);
  EXPECT_EQ(reg.Total("unregistered"), 0);

  const auto& rounds = reg.rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].run, "alg");
  EXPECT_EQ(rounds[0].round, 0);
  EXPECT_EQ(rounds[0].counters.at("bytes"), 100);
  EXPECT_EQ(rounds[0].counters.at("drops"), 1);
  EXPECT_DOUBLE_EQ(rounds[0].gauges.at("acc"), 0.5);
  // Round 1: only the delta, and the gauge was not re-set.
  EXPECT_EQ(rounds[1].counters.at("bytes"), 50);
  EXPECT_EQ(rounds[1].counters.count("drops"), 0u);
  EXPECT_EQ(rounds[1].gauges.count("acc"), 0u);
}

TEST(RegistryTest, ConcurrentAddsSumToOrderIndependentTotals) {
  Registry reg;
  const auto c = reg.Counter("c");
  core::ThreadPool pool(4);
  core::ParallelFor(&pool, 1000, [&](std::size_t i) {
    reg.Add(c, static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(reg.Total("c"), 999 * 1000 / 2);
}

// A write made after EndRound(r) — as SnapshotWriter::WriteFile makes
// after the barrier — is in the totals at once and lands in round r+1's
// row, never in round r's.
TEST(RegistryTest, WriteAfterTheBarrierCountsAtOnceAndInTheNextRow) {
  Registry reg;
  reg.AddNamed("bytes_up", 10);
  reg.EndRound("alg", 0);
  reg.AddNamed("checkpoint_writes", 1);
  reg.ObserveNamed("lat_us", 7);
  EXPECT_EQ(reg.Total("checkpoint_writes"), 1);
  EXPECT_EQ(reg.SnapshotTotals().counters.at("checkpoint_writes"), 1);
  EXPECT_EQ(reg.HistogramTotals("lat_us").count(), 1);
  ASSERT_EQ(reg.rounds().size(), 1u);
  EXPECT_EQ(reg.rounds()[0].counters.count("checkpoint_writes"), 0u);
  EXPECT_EQ(reg.rounds()[0].hists.count("lat_us"), 0u);

  reg.EndRound("alg", 1);
  ASSERT_EQ(reg.rounds().size(), 2u);
  EXPECT_EQ(reg.rounds()[1].counters.at("checkpoint_writes"), 1);
  EXPECT_EQ(reg.rounds()[1].counters.count("bytes_up"), 0u);
  EXPECT_EQ(reg.rounds()[1].hists.at("lat_us").count(), 1);
}

// An AddNamed made before EndRound(r) — as FinishRound makes at the merge —
// lands in round r's row.
TEST(RegistryTest, AddNamedBeforeTheBarrierLandsInThatRound) {
  Registry reg;
  reg.EndRound("alg", 0);
  reg.AddNamed("agg_updates", 3);
  reg.EndRound("alg", 1);
  ASSERT_EQ(reg.rounds().size(), 2u);
  EXPECT_EQ(reg.rounds()[0].counters.count("agg_updates"), 0u);
  EXPECT_EQ(reg.rounds()[1].counters.at("agg_updates"), 3);
  EXPECT_EQ(reg.Total("agg_updates"), 3);
}

TEST(RegistryTest, CounterRegistrationIsIdempotent) {
  Registry reg;
  EXPECT_EQ(reg.Counter("x"), reg.Counter("x"));
  reg.AddNamed("x", 2);
  reg.AddNamed("x", 3);
  EXPECT_EQ(reg.Total("x"), 5);
}

// AddClientRow is the only source of client telemetry: each row counts into
// the base metrics and into its tier's twins, with drops split by reason.
TEST(RegistryTest, ClientRowsCountIntoBaseAndTierTwins) {
  Registry reg;
  auto row = [](int client, const std::string& tier,
                const std::string& drop_reason, double wall_ms,
                std::int64_t bytes, std::int64_t mflops) {
    Registry::ClientRow r;
    r.run = "alg";
    r.client = client;
    r.device_tier = tier;
    r.drop_reason = drop_reason;
    r.wall_ms = wall_ms;
    r.bytes_up = bytes;
    r.bytes_down = bytes;
    r.train_mflops = mflops;
    return r;
  };
  reg.AddClientRow(row(0, "cpu", "", 2.5, 1000, 40));
  reg.AddClientRow(row(1, "cpu", "offline", 0.0, 0, 0));
  reg.AddClientRow(row(2, "mem4g", "", 7.0, 3000, 90));
  reg.AddClientRow(row(3, "mem4g", "straggler", 0.0, 0, 0));
  reg.AddClientRow(row(4, "mem4g", "", 1.25, 500, 10));
  // Counted at once; the round row is cut at the barrier.
  EXPECT_EQ(reg.Total("clients_selected"), 5);
  EXPECT_TRUE(reg.rounds().empty());
  reg.EndRound("alg", 0);

  EXPECT_EQ(reg.Total("clients_selected"), 5);
  EXPECT_EQ(reg.Total("clients_offline"), 1);
  EXPECT_EQ(reg.Total("clients_dropped"), 1);
  EXPECT_EQ(reg.Total("clients_trained"), 3);
  EXPECT_EQ(reg.Total("bytes_up"), 4500);
  EXPECT_EQ(reg.Total("bytes_down"), 4500);
  EXPECT_EQ(reg.Total("train_mflops"), 140);

  EXPECT_EQ(reg.Total("clients_selected@cpu"), 2);
  EXPECT_EQ(reg.Total("clients_offline@cpu"), 1);
  EXPECT_EQ(reg.Total("clients_dropped@cpu"), 0);
  EXPECT_EQ(reg.Total("clients_trained@cpu"), 1);
  EXPECT_EQ(reg.Total("bytes_up@cpu"), 1000);
  EXPECT_EQ(reg.Total("train_mflops@cpu"), 40);
  EXPECT_EQ(reg.Total("clients_selected@mem4g"), 3);
  EXPECT_EQ(reg.Total("clients_offline@mem4g"), 0);
  EXPECT_EQ(reg.Total("clients_dropped@mem4g"), 1);
  EXPECT_EQ(reg.Total("clients_trained@mem4g"), 2);
  EXPECT_EQ(reg.Total("bytes_down@mem4g"), 3500);
  EXPECT_EQ(reg.Total("train_mflops@mem4g"), 100);
  // Zero-valued twins are registered, so they export.
  EXPECT_EQ(reg.SnapshotTotals().counters.count("clients_dropped@cpu"), 1u);

  // Histograms observe trained rows only; wall time in whole microseconds.
  const Registry::HistogramData wall = reg.HistogramTotals("client_wall_us");
  EXPECT_EQ(wall.count(), 3);
  EXPECT_EQ(wall.sum, 2500 + 7000 + 1250);
  EXPECT_EQ(wall.min, 1250);
  EXPECT_EQ(wall.max, 7000);
  EXPECT_EQ(reg.HistogramTotals("client_bytes_up").sum, 4500);
  EXPECT_EQ(reg.HistogramTotals("client_train_mflops").max, 90);
  const Registry::HistogramData cpu_wall =
      reg.HistogramTotals("client_wall_us@cpu");
  EXPECT_EQ(cpu_wall.count(), 1);
  EXPECT_EQ(cpu_wall.sum, 2500);
  const Registry::HistogramData mem4g_bytes =
      reg.HistogramTotals("client_bytes_up@mem4g");
  EXPECT_EQ(mem4g_bytes.count(), 2);
  EXPECT_EQ(mem4g_bytes.min, 500);
  EXPECT_EQ(mem4g_bytes.max, 3000);

  // The round row carries the same deltas.
  ASSERT_EQ(reg.rounds().size(), 1u);
  EXPECT_EQ(reg.rounds()[0].counters.at("clients_trained@mem4g"), 2);
  EXPECT_EQ(reg.rounds()[0].hists.at("client_wall_us@cpu").count(), 1);
}

TEST(RegistryTest, DeclaredTiersRegisterZeroTwinsAndEmptyTierIsUntiered) {
  Registry reg;
  reg.DeclareClientTiers({"cpu", "", "cpu"});
  const Registry::LiveSnapshot snap = reg.SnapshotTotals();
  const auto& totals = snap.counters;
  for (const char* name :
       {"clients_selected", "clients_offline@cpu", "train_mflops@untiered"}) {
    ASSERT_EQ(totals.count(name), 1u) << name;
    EXPECT_EQ(totals.at(name), 0) << name;
  }
  EXPECT_EQ(snap.hists.count("client_wall_us@untiered"), 1u);

  std::vector<Registry::ClientRow> drained;
  reg.SetClientRowSink([&](std::vector<Registry::ClientRow>&& rows) {
    drained = std::move(rows);
  });
  Registry::ClientRow r;
  r.bytes_up = 8;
  reg.AddClientRow(r);
  reg.EndRound("alg", 0);
  EXPECT_EQ(reg.Total("bytes_up@untiered"), 8);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].device_tier, "untiered");
}

TEST(RegistryTest, SplitTierName) {
  EXPECT_EQ(SplitTierName("bytes_up@cpu"),
            (std::pair<std::string, std::string>("bytes_up", "cpu")));
  EXPECT_EQ(SplitTierName("bytes_up"),
            (std::pair<std::string, std::string>("bytes_up", "")));
}

TEST(ManifestTest, SanitizeRunId) {
  EXPECT_EQ(SanitizeRunId("cifar10-comp_v1.2"), "cifar10-comp_v1.2");
  EXPECT_EQ(SanitizeRunId("a/b c"), "a_b_c");
  EXPECT_EQ(SanitizeRunId(".."), "run");
  EXPECT_EQ(SanitizeRunId(""), "run");
}

TEST(ManifestTest, WritesManifestJsonAndRoundsCsv) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mhb_manifest_test" /
      std::to_string(::getpid());
  fs::remove_all(dir);

  Registry reg;
  reg.AddNamed("bytes_up", 42);
  reg.SetGauge("sim_time_s", 1.25);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 8);
  reg.EndRound("fedavg", 1);

  RunManifest m;
  m.run_id = "unit/test run";  // must be sanitized
  m.tool = "tracer_test";
  m.git_describe = "deadbeef";
  m.created_utc = IsoTimestampUtc();
  m.seed = 7;
  m.threads = 2;
  m.config = {{"task", "cifar10"}, {"quote", "needs \"escaping\""}};
  m.metrics = {{"final_accuracy", 0.5}};

  const std::string run_dir = WriteRunManifest(dir.string(), m, &reg);
  EXPECT_NE(run_dir.find("unit_test_run"), std::string::npos);

  std::ifstream manifest(fs::path(run_dir) / "manifest.json");
  ASSERT_TRUE(manifest.good());
  std::stringstream manifest_text;
  manifest_text << manifest.rdbuf();
  const std::string mt = manifest_text.str();
  EXPECT_NE(mt.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(mt.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(mt.find("\"git_describe\": \"deadbeef\""), std::string::npos);
  EXPECT_NE(mt.find("needs \\\"escaping\\\""), std::string::npos);
  EXPECT_NE(mt.find("\"bytes_up\": 50"), std::string::npos);
  EXPECT_NE(mt.find("\"rounds\": 2"), std::string::npos);

  std::ifstream rounds(fs::path(run_dir) / "rounds.csv");
  ASSERT_TRUE(rounds.good());
  std::string header, row0, row1;
  ASSERT_TRUE(std::getline(rounds, header));
  ASSERT_TRUE(std::getline(rounds, row0));
  ASSERT_TRUE(std::getline(rounds, row1));
  EXPECT_NE(header.find("run"), std::string::npos);
  EXPECT_NE(header.find("round"), std::string::npos);
  EXPECT_NE(header.find("bytes_up"), std::string::npos);
  EXPECT_NE(header.find("sim_time_s"), std::string::npos);
  EXPECT_NE(row0.find("fedavg"), std::string::npos);
  EXPECT_NE(row0.find("42"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mhbench::obs
