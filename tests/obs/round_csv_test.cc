// Round CSV publisher (obs/manifest.h WriteRoundsCsv / WriteTiersCsv): after
// every round the streamed rounds.csv and tiers.csv must equal a
// whole-history render of the same registry, the file must be appended in
// place (same inode) whenever the column union did not grow, and every
// way the file can go stale — truncation, deletion, another registry or
// another directory — must end in a correct full rewrite.
#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/csv.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::obs {
namespace {

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

void AppendHistHeader(std::vector<std::string>& header,
                      const std::set<std::string>& hist_cols) {
  for (const auto& h : hist_cols) {
    for (const char* suffix : {"_count", "_p50", "_p95", "_p99"}) {
      header.push_back(h + suffix);
    }
  }
}

void AppendHistCells(
    std::vector<std::string>& cells, const std::set<std::string>& hist_cols,
    const std::map<std::string, Registry::HistogramData>& hists) {
  for (const auto& h : hist_cols) {
    auto it = hists.find(h);
    if (it == hists.end()) {
      cells.insert(cells.end(), {"0", "", "", ""});
      continue;
    }
    cells.push_back(std::to_string(it->second.count()));
    for (const double q : {0.50, 0.95, 0.99}) {
      cells.push_back(FormatDouble(it->second.Quantile(q)));
    }
  }
}

// Reference: the whole-history rounds.csv render — union the columns over
// every row, then render every row.  "" when the file would not be written.
std::string ReferenceRoundsCsv(const Registry& registry) {
  if (registry.rounds().empty()) return "";
  std::set<std::string> counter_cols;
  std::set<std::string> gauge_cols;
  std::set<std::string> hist_cols;
  for (const auto& row : registry.rounds()) {
    for (const auto& [k, v] : row.counters) counter_cols.insert(k);
    for (const auto& [k, v] : row.gauges) gauge_cols.insert(k);
    for (const auto& [k, v] : row.hists) hist_cols.insert(k);
  }
  std::vector<std::string> header = {"run", "round"};
  header.insert(header.end(), gauge_cols.begin(), gauge_cols.end());
  header.insert(header.end(), counter_cols.begin(), counter_cols.end());
  AppendHistHeader(header, hist_cols);
  CsvWriter csv(header);
  for (const auto& row : registry.rounds()) {
    std::vector<std::string> cells = {row.run, std::to_string(row.round)};
    for (const auto& g : gauge_cols) {
      auto it = row.gauges.find(g);
      std::ostringstream v;
      if (it != row.gauges.end()) v << it->second;
      cells.push_back(v.str());
    }
    for (const auto& c : counter_cols) {
      auto it = row.counters.find(c);
      cells.push_back(
          it == row.counters.end() ? "0" : std::to_string(it->second));
    }
    AppendHistCells(cells, hist_cols, row.hists);
    csv.AddRow(cells);
  }
  return csv.ToString();
}

// Reference: the whole-history tiers.csv render.
std::string ReferenceTiersCsv(const Registry& registry) {
  std::set<std::string> counter_cols;
  std::set<std::string> hist_cols;
  for (const auto& row : registry.rounds()) {
    for (const auto& [tier, m] : GroupByTier(row.counters, row.hists)) {
      for (const auto& [base, v] : m.counters) counter_cols.insert(base);
      for (const auto& [base, h] : m.hists) hist_cols.insert(base);
    }
  }
  if (counter_cols.empty() && hist_cols.empty()) return "";
  std::vector<std::string> header = {"run", "round", "tier"};
  header.insert(header.end(), counter_cols.begin(), counter_cols.end());
  AppendHistHeader(header, hist_cols);
  CsvWriter csv(header);
  for (const auto& row : registry.rounds()) {
    for (const auto& [tier, m] : GroupByTier(row.counters, row.hists)) {
      std::vector<std::string> cells = {row.run, std::to_string(row.round),
                                        tier};
      for (const auto& c : counter_cols) {
        auto it = m.counters.find(c);
        cells.push_back(
            it == m.counters.end() ? "0" : std::to_string(it->second));
      }
      AppendHistCells(cells, hist_cols, m.hists);
      csv.AddRow(cells);
    }
  }
  return csv.ToString();
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream s;
  s << f.rdbuf();
  return s.str();
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

ino_t Inode(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

void StreamInto(Registry& reg, const std::string& dir) {
  reg.SetRoundSink([&reg, dir](const Registry::RoundRow&) {
    WriteRoundsCsv(dir, reg);
    WriteTiersCsv(dir, reg);
  });
}

// One round of synthetic telemetry whose schema grows mid-run: a counter
// that first turns non-zero at round 5, a straggler drop (new
// `clients_dropped` base) at round 3, a new device tier at round 8, and
// `global_acc` only on every 4th round.
void PlayRound(Registry& reg, int round) {
  for (int c = 0; c < 3; ++c) {
    Registry::ClientRow row;
    row.run = "sheterofl";
    row.round = round;
    row.client = c;
    row.device_tier = (round >= 8 && c == 2) ? "gpu" : "cpu";
    row.drop_reason = (round == 3 && c == 1) ? "straggler" : "";
    row.wall_ms = 1.5 + round + c;
    row.bytes_up = 1000 + 10 * round + c;
    row.bytes_down = 2000;
    row.train_mflops = 7 + c;
    reg.AddClientRow(row);
  }
  reg.AddNamed("dispatch_batches", round + 1);
  if (round >= 5) reg.AddNamed("late_counter", round);
  reg.SetGauge("sim_time_s", 0.25 * (round + 1));
  if (round % 4 == 3) reg.SetGauge("global_acc", 0.1 * round);
  reg.EndRound("sheterofl", round);
}

TEST(RoundCsvSinkTest, EveryRoundMatchesWholeHistoryRender) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string rounds_csv = dir.File("rounds.csv");
  const std::string tiers_csv = dir.File("tiers.csv");
  Registry reg;
  StreamInto(reg, dir.path);

  std::string prev_rounds_header, prev_tiers_header;
  ino_t prev_rounds_inode = 0, prev_tiers_inode = 0;
  int appended_rounds = 0;
  for (int round = 0; round < 12; ++round) {
    PlayRound(reg, round);
    const std::string want_rounds = ReferenceRoundsCsv(reg);
    const std::string want_tiers = ReferenceTiersCsv(reg);
    ASSERT_EQ(ReadFile(rounds_csv), want_rounds) << "round " << round;
    ASSERT_EQ(ReadFile(tiers_csv), want_tiers) << "round " << round;

    // An unchanged header means the union did not grow: the file must
    // have been appended in place, not replaced by a rename.
    const ino_t rounds_inode = Inode(rounds_csv);
    const ino_t tiers_inode = Inode(tiers_csv);
    if (round > 0 && FirstLine(want_rounds) == prev_rounds_header) {
      EXPECT_EQ(rounds_inode, prev_rounds_inode) << "round " << round;
      ++appended_rounds;
    }
    if (round > 0 && FirstLine(want_tiers) == prev_tiers_header) {
      EXPECT_EQ(tiers_inode, prev_tiers_inode) << "round " << round;
    }
    prev_rounds_header = FirstLine(want_rounds);
    prev_tiers_header = FirstLine(want_tiers);
    prev_rounds_inode = rounds_inode;
    prev_tiers_inode = tiers_inode;
  }
  reg.SetRoundSink(nullptr);
  // The schema grew at rounds 3, 5 and 8; every other round appended.
  EXPECT_EQ(appended_rounds, 8);
}

TEST(RoundCsvSinkTest, TruncatedOrDeletedFileIsRewrittenWhole) {
  // Rounds 4, 6 and 7 bring no new column, so only the file's state on
  // disk can send them down the rewrite path.
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string rounds_csv = dir.File("rounds.csv");
  const std::string tiers_csv = dir.File("tiers.csv");
  Registry reg;
  StreamInto(reg, dir.path);
  for (int round = 0; round < 4; ++round) PlayRound(reg, round);

  std::filesystem::resize_file(rounds_csv,
                               std::filesystem::file_size(rounds_csv) / 2);
  std::filesystem::resize_file(tiers_csv, 0);
  PlayRound(reg, 4);
  EXPECT_EQ(ReadFile(rounds_csv), ReferenceRoundsCsv(reg));
  EXPECT_EQ(ReadFile(tiers_csv), ReferenceTiersCsv(reg));

  PlayRound(reg, 5);
  std::filesystem::remove(rounds_csv);
  std::filesystem::remove(tiers_csv);
  PlayRound(reg, 6);
  EXPECT_EQ(ReadFile(rounds_csv), ReferenceRoundsCsv(reg));
  EXPECT_EQ(ReadFile(tiers_csv), ReferenceTiersCsv(reg));

  // Deleted, then republished with no new row (the end-of-run call): still
  // a whole rewrite.
  PlayRound(reg, 7);
  reg.SetRoundSink(nullptr);
  std::filesystem::remove(rounds_csv);
  WriteRoundsCsv(dir.path, reg);
  EXPECT_EQ(ReadFile(rounds_csv), ReferenceRoundsCsv(reg));
}

TEST(RoundCsvSinkTest, FreshRegistryRewritesTheDirectory) {
  // A resumed run: a second registry streams into the directory the first
  // one left, and its files hold only its own rounds.
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  {
    Registry first;
    StreamInto(first, dir.path);
    for (int round = 0; round < 6; ++round) PlayRound(first, round);
    first.SetRoundSink(nullptr);
  }
  Registry resumed;
  StreamInto(resumed, dir.path);
  for (int round = 6; round < 8; ++round) {
    PlayRound(resumed, round);
    EXPECT_EQ(ReadFile(dir.File("rounds.csv")), ReferenceRoundsCsv(resumed));
    EXPECT_EQ(ReadFile(dir.File("tiers.csv")), ReferenceTiersCsv(resumed));
  }
  resumed.SetRoundSink(nullptr);
}

TEST(RoundCsvSinkTest, OneRegistryTwoDirectoriesGiveEqualBytes) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const testsupport::TempDir other = testsupport::MakeTempDir();
  Registry reg;
  StreamInto(reg, dir.path);
  for (int round = 0; round < 4; ++round) PlayRound(reg, round);

  WriteRoundsCsv(other.path, reg);
  WriteTiersCsv(other.path, reg);
  EXPECT_EQ(ReadFile(other.File("rounds.csv")),
            ReadFile(dir.File("rounds.csv")));
  EXPECT_EQ(ReadFile(other.File("tiers.csv")),
            ReadFile(dir.File("tiers.csv")));

  // Back to streaming into the first directory.
  PlayRound(reg, 4);
  EXPECT_EQ(ReadFile(dir.File("rounds.csv")), ReferenceRoundsCsv(reg));
  EXPECT_EQ(ReadFile(dir.File("tiers.csv")), ReferenceTiersCsv(reg));

  // A path switch rewrites even over a stale file of the very size the
  // last publish left (round 6 brings no new column).
  PlayRound(reg, 5);  // still into the first directory
  const testsupport::TempDir third = testsupport::MakeTempDir();
  for (const char* name : {"rounds.csv", "tiers.csv"}) {
    std::ofstream(third.File(name), std::ios::binary)
        << std::string(std::filesystem::file_size(dir.File(name)), 'x');
  }
  StreamInto(reg, third.path);
  PlayRound(reg, 6);
  reg.SetRoundSink(nullptr);
  EXPECT_EQ(ReadFile(third.File("rounds.csv")), ReferenceRoundsCsv(reg));
  EXPECT_EQ(ReadFile(third.File("tiers.csv")), ReferenceTiersCsv(reg));
}

TEST(RoundCsvSinkTest, RunManifestLeavesStreamedCsvsAlone) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  RunManifest m;
  m.run_id = "sheterofl-seed1";
  const std::string run_dir =
      (std::filesystem::path(dir.path) / SanitizeRunId(m.run_id)).string();
  std::filesystem::create_directories(run_dir);
  Registry reg;
  StreamInto(reg, run_dir);
  for (int round = 0; round < 5; ++round) PlayRound(reg, round);
  reg.SetRoundSink(nullptr);

  const std::string rounds_csv = run_dir + "/rounds.csv";
  const std::string tiers_csv = run_dir + "/tiers.csv";
  const std::string rounds_before = ReadFile(rounds_csv);
  const std::string tiers_before = ReadFile(tiers_csv);
  const ino_t rounds_inode = Inode(rounds_csv);
  const ino_t tiers_inode = Inode(tiers_csv);

  EXPECT_EQ(WriteRunManifest(dir.path, m, &reg), run_dir);
  EXPECT_EQ(ReadFile(rounds_csv), rounds_before);
  EXPECT_EQ(ReadFile(tiers_csv), tiers_before);
  EXPECT_EQ(rounds_before, ReferenceRoundsCsv(reg));
  EXPECT_EQ(tiers_before, ReferenceTiersCsv(reg));
  EXPECT_EQ(Inode(rounds_csv), rounds_inode);
  EXPECT_EQ(Inode(tiers_csv), tiers_inode);
}

}  // namespace
}  // namespace mhbench::obs
