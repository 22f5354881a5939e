// Wire-format contract tests for the bounded-memory client event journal
// (obs/journal.h, DESIGN.md §5j), mirroring the snapshot format suite: the
// byte layout is pinned by a hand-assembled golden (built with independent
// little-endian helpers and a bit-at-a-time reference CRC), and the reader
// must reject EVERY single-bit corruption and EVERY truncation — a flipped
// bit or a torn tail may never yield silently-wrong client telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::obs {
namespace {

// Reference CRC-32 (IEEE 802.3, reflected 0xEDB88320), bit-at-a-time — an
// implementation independent of the table-driven one under test.
std::uint32_t BitwiseCrc32(const std::vector<std::uint8_t>& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Independent little-endian byte builders for the golden layout.
template <typename T>
void PushLe(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PushF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PushLe<std::uint64_t>(out, bits);
}

void PushStr(std::vector<std::uint8_t>& out, const std::string& s) {
  PushLe<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Registry::ClientRow MakeRow(const std::string& run, int round, int client,
                            const std::string& tier,
                            const std::string& drop_reason) {
  Registry::ClientRow row;
  row.run = run;
  row.round = round;
  row.client = client;
  row.device_tier = tier;
  row.drop_reason = drop_reason;
  return row;
}

// The example stream every structural test reuses: two round barriers with
// all three drop codes, distinct tiers, and a non-zero wall_ms on the
// trained row — which must NOT appear anywhere in the bytes.
const std::uint64_t kSeed = 42;

std::vector<Registry::ClientRow> ExampleRound1() {
  std::vector<Registry::ClientRow> rows;
  Registry::ClientRow a = MakeRow("fedavg", 1, 0, "cpu", "");
  a.sim_compute_s = 5.5;
  a.sim_comm_s = 2.0;
  a.memory_mb = 512.0;
  a.wall_ms = 3.25;  // measured wall time: histogram-only, never journaled
  a.bytes_up = 1000;
  a.bytes_down = 2000;
  a.train_mflops = 77;
  rows.push_back(a);
  Registry::ClientRow b = MakeRow("fedavg", 1, 1, "mem4g", "offline");
  b.memory_mb = 2048.0;
  rows.push_back(b);
  return rows;
}

std::vector<Registry::ClientRow> ExampleRound2() {
  std::vector<Registry::ClientRow> rows;
  Registry::ClientRow c = MakeRow("fedavg", 2, 2, "mem16g", "straggler");
  c.sim_compute_s = 26.0;
  c.sim_comm_s = 2.0;
  c.memory_mb = 8192.0;
  rows.push_back(c);
  return rows;
}

std::vector<std::uint8_t> WriteExampleJournal(const std::string& path) {
  ClientJournalWriter::Options opts;
  opts.sample_rate = 1.0;
  opts.sample_seed = kSeed;
  ClientJournalWriter writer(path, opts);
  writer.Append(ExampleRound1());
  writer.Append(ExampleRound2());
  writer.Close();
  return ReadFileBytes(path);
}

void PushRecord(std::vector<std::uint8_t>& out, const Registry::ClientRow& r,
                std::uint8_t drop_code) {
  PushLe<std::uint32_t>(out, static_cast<std::uint32_t>(r.client));
  PushStr(out, r.device_tier);
  out.push_back(drop_code);
  PushF64(out, r.sim_compute_s);
  PushF64(out, r.sim_comm_s);
  PushF64(out, r.memory_mb);
  PushLe<std::uint64_t>(out, static_cast<std::uint64_t>(r.bytes_up));
  PushLe<std::uint64_t>(out, static_cast<std::uint64_t>(r.bytes_down));
  PushLe<std::uint64_t>(out, static_cast<std::uint64_t>(r.train_mflops));
}

void PushBlock(std::vector<std::uint8_t>& out, int round,
               const std::string& run,
               const std::vector<std::uint8_t>& records,
               std::uint32_t record_count) {
  std::vector<std::uint8_t> payload;
  PushLe<std::uint32_t>(payload, static_cast<std::uint32_t>(round));
  PushStr(payload, run);
  PushLe<std::uint32_t>(payload, record_count);
  payload.insert(payload.end(), records.begin(), records.end());
  PushLe<std::uint64_t>(out, payload.size());
  PushLe<std::uint32_t>(out, BitwiseCrc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> GoldenExampleBytes() {
  std::vector<std::uint8_t> want;
  const char magic[] = "MHBJRNL1";
  want.insert(want.end(), magic, magic + 8);
  PushLe<std::uint32_t>(want, 1);  // version
  PushF64(want, 1.0);              // sample_rate
  PushLe<std::uint64_t>(want, kSeed);

  const auto r1 = ExampleRound1();
  std::vector<std::uint8_t> recs1;
  PushRecord(recs1, r1[0], 0);
  PushRecord(recs1, r1[1], 1);
  PushBlock(want, 1, "fedavg", recs1, 2);

  const auto r2 = ExampleRound2();
  std::vector<std::uint8_t> recs2;
  PushRecord(recs2, r2[0], 2);
  PushBlock(want, 2, "fedavg", recs2, 1);
  return want;
}

// Corruption oracle: true iff `bytes`, written to disk, read back as
// exactly the pristine example stream — header meta AND every record field.
// Header meta matters: sample_rate/seed are outside the block CRCs, so a
// flip there must be caught by the value comparison instead.
bool SurvivesIntact(const std::vector<std::uint8_t>& bytes,
                    const std::string& probe_path) {
  WriteFileBytes(probe_path, bytes);
  ClientJournalContents got;
  try {
    got = ReadClientJournal(probe_path);
  } catch (const Error&) {
    return false;
  }
  if (got.version != 1 || got.sample_rate != 1.0 || got.sample_seed != kSeed) {
    return false;
  }
  std::vector<Registry::ClientRow> expect = ExampleRound1();
  for (const auto& r : ExampleRound2()) expect.push_back(r);
  if (got.records.size() != expect.size()) return false;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const Registry::ClientRow& g = got.records[i];
    const Registry::ClientRow& e = expect[i];
    if (g.run != e.run || g.round != e.round || g.client != e.client ||
        g.device_tier != e.device_tier || g.drop_reason != e.drop_reason ||
        g.sim_compute_s != e.sim_compute_s || g.sim_comm_s != e.sim_comm_s ||
        g.memory_mb != e.memory_mb || g.bytes_up != e.bytes_up ||
        g.bytes_down != e.bytes_down || g.train_mflops != e.train_mflops ||
        g.wall_ms != 0.0) {
      return false;
    }
  }
  return true;
}

TEST(JournalSamplingTest, IsAPureFunctionWithExactEdgeRates) {
  for (int client = 0; client < 64; ++client) {
    // Rate >= 1 keeps everyone, rate <= 0 keeps no one, exactly.
    EXPECT_TRUE(JournalSampleClient(7, client, 1.0));
    EXPECT_TRUE(JournalSampleClient(7, client, 1.5));
    EXPECT_FALSE(JournalSampleClient(7, client, 0.0));
    EXPECT_FALSE(JournalSampleClient(7, client, -1.0));
    // Same (seed, client, rate) -> same answer, always.
    EXPECT_EQ(JournalSampleClient(7, client, 0.5),
              JournalSampleClient(7, client, 0.5));
  }

  // The hash behaves like a uniform draw: a 0.5 rate keeps roughly half of
  // a large fleet, and different seeds select different subsets.
  int kept = 0;
  bool seeds_differ = false;
  for (int client = 0; client < 10000; ++client) {
    if (JournalSampleClient(7, client, 0.5)) ++kept;
    if (JournalSampleClient(7, client, 0.5) !=
        JournalSampleClient(8, client, 0.5)) {
      seeds_differ = true;
    }
  }
  EXPECT_GT(kept, 4500);
  EXPECT_LT(kept, 5500);
  EXPECT_TRUE(seeds_differ);
}

TEST(JournalFormatTest, RoundTripsTheExampleStream) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string path = dir.File("clients.mhbj");
  {
    ClientJournalWriter::Options opts;
    opts.sample_rate = 1.0;
    opts.sample_seed = kSeed;
    ClientJournalWriter writer(path, opts);
    writer.Append(ExampleRound1());
    writer.Append(ExampleRound2());
    EXPECT_EQ(writer.blocks_written(), 2);
    EXPECT_EQ(writer.records_written(), 3);
    writer.Close();
    writer.Close();  // idempotent
  }
  EXPECT_TRUE(SurvivesIntact(ReadFileBytes(path), dir.File("probe.mhbj")));
}

TEST(JournalFormatTest, GoldenByteLayout) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::vector<std::uint8_t> bytes =
      WriteExampleJournal(dir.File("clients.mhbj"));
  EXPECT_EQ(bytes, GoldenExampleBytes());
}

TEST(JournalFormatTest, EveryByteFlipIsDetected) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::vector<std::uint8_t> good =
      WriteExampleJournal(dir.File("clients.mhbj"));
  const std::string probe = dir.File("probe.mhbj");
  ASSERT_TRUE(SurvivesIntact(good, probe));

  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= mask;
      EXPECT_FALSE(SurvivesIntact(bad, probe))
          << "flip of byte " << i << " (mask 0x" << std::hex
          << static_cast<int>(mask) << ") went undetected";
    }
  }
}

TEST(JournalFormatTest, EveryTruncationIsDetected) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::vector<std::uint8_t> good =
      WriteExampleJournal(dir.File("clients.mhbj"));
  const std::string probe = dir.File("probe.mhbj");

  // Every proper prefix either throws (torn header/frame/payload) or parses
  // to fewer records than the pristine stream — never to silently-complete
  // data.  A prefix ending exactly on a block boundary is VALID (that is
  // the crash-recovery contract: every flushed barrier survives), which is
  // why the oracle compares contents instead of expecting a throw.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(SurvivesIntact(
        std::vector<std::uint8_t>(good.begin(),
                                  good.begin() + static_cast<long>(n)),
        probe))
        << "truncation to " << n << " bytes went undetected";
  }
}

TEST(JournalFormatTest, TrailingGarbageThrows) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  std::vector<std::uint8_t> bytes =
      WriteExampleJournal(dir.File("clients.mhbj"));
  bytes.push_back(0x00);  // half-started frame after the last block
  const std::string probe = dir.File("probe.mhbj");
  WriteFileBytes(probe, bytes);
  EXPECT_THROW(ReadClientJournal(probe), Error);
}

TEST(JournalFormatTest, BadMagicThrows) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  std::vector<std::uint8_t> bytes =
      WriteExampleJournal(dir.File("clients.mhbj"));
  bytes[0] = 'X';
  const std::string probe = dir.File("probe.mhbj");
  WriteFileBytes(probe, bytes);
  EXPECT_THROW(ReadClientJournal(probe), Error);
}

TEST(JournalFormatTest, CrossVersionIsRejected) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::vector<std::uint8_t> good =
      WriteExampleJournal(dir.File("clients.mhbj"));
  const std::string probe = dir.File("probe.mhbj");
  for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> bad = good;
    for (std::size_t i = 0; i < 4; ++i) {
      bad[8 + i] = static_cast<std::uint8_t>((version >> (8 * i)) & 0xFF);
    }
    WriteFileBytes(probe, bad);
    EXPECT_THROW(ReadClientJournal(probe), Error) << "version " << version;
  }
}

TEST(JournalWriterTest, MixedRoundsOrRunsInOneDrainThrow) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  ClientJournalWriter writer(dir.File("clients.mhbj"), {});
  std::vector<Registry::ClientRow> mixed_round = ExampleRound1();
  mixed_round.push_back(MakeRow("fedavg", 2, 5, "cpu", ""));
  EXPECT_THROW(writer.Append(mixed_round), Error);
  std::vector<Registry::ClientRow> mixed_run = ExampleRound1();
  mixed_run.push_back(MakeRow("fedprox", 1, 5, "cpu", ""));
  EXPECT_THROW(writer.Append(mixed_run), Error);
}

TEST(JournalWriterTest, UnknownDropReasonThrows) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  ClientJournalWriter writer(dir.File("clients.mhbj"), {});
  EXPECT_THROW(
      writer.Append({MakeRow("fedavg", 1, 0, "cpu", "rage-quit")}), Error);
}

TEST(JournalWriterTest, AppendAfterCloseThrowsAndEmptyAppendIsANoOp) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string path = dir.File("clients.mhbj");
  ClientJournalWriter writer(path, {});
  writer.Append({});  // no rows staged this round: nothing written
  EXPECT_EQ(writer.blocks_written(), 0);
  writer.Close();
  EXPECT_THROW(writer.Append(ExampleRound1()), Error);
  // The header alone is a valid, empty journal.
  const ClientJournalContents contents = ReadClientJournal(path);
  EXPECT_TRUE(contents.records.empty());
}

TEST(JournalWriterTest, SamplingKeepsExactlyTheHashedSubset) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string path = dir.File("clients.mhbj");
  ClientJournalWriter::Options opts;
  opts.sample_rate = 0.5;
  opts.sample_seed = 123;

  std::vector<Registry::ClientRow> rows;
  std::vector<int> want_kept;
  for (int client = 0; client < 40; ++client) {
    rows.push_back(MakeRow("fedavg", 1, client, "cpu", ""));
    if (JournalSampleClient(opts.sample_seed, client, opts.sample_rate)) {
      want_kept.push_back(client);
    }
  }
  ASSERT_GT(want_kept.size(), 0u);
  ASSERT_LT(want_kept.size(), rows.size());

  {
    ClientJournalWriter writer(path, opts);
    writer.Append(rows);
    EXPECT_EQ(writer.records_written(),
              static_cast<std::int64_t>(want_kept.size()));
    writer.Close();
  }
  const ClientJournalContents contents = ReadClientJournal(path);
  EXPECT_EQ(contents.sample_rate, 0.5);
  EXPECT_EQ(contents.sample_seed, 123u);
  std::vector<int> got_kept;
  for (const auto& rec : contents.records) got_kept.push_back(rec.client);
  EXPECT_EQ(got_kept, want_kept);
}

TEST(JournalWriterTest, PeakBlockBytesStaysFlatAsRoundsAccumulate) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  ClientJournalWriter writer(dir.File("clients.mhbj"), {});

  auto cohort = [](int round) {
    std::vector<Registry::ClientRow> rows;
    for (int client = 0; client < 32; ++client) {
      rows.push_back(MakeRow("fedavg", round, client, "mem4g",
                             client % 4 == 0 ? "offline" : ""));
    }
    return rows;
  };

  writer.Append(cohort(1));
  const std::size_t peak_after_first = writer.peak_block_bytes();
  EXPECT_GT(peak_after_first, 0u);
  for (int round = 2; round <= 64; ++round) writer.Append(cohort(round));

  // The write buffer is the journal's only per-round state: 64 identical
  // cohorts must not grow it past the first round's high-water mark.
  EXPECT_EQ(writer.peak_block_bytes(), peak_after_first);
  EXPECT_EQ(writer.blocks_written(), 64);
  EXPECT_EQ(writer.records_written(), 64 * 32);
}

}  // namespace
}  // namespace mhbench::obs
