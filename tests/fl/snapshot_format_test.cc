// Wire-format contract of the snapshot subsystem (fl/checkpoint.h):
// golden byte layout, round-trips, and exhaustive
// corruption/truncation fuzzing — every flipped byte and every truncated
// prefix must be detected, never decoded approximately.
#include "fl/checkpoint.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/error.h"
#include "support/temp_dir.h"

namespace mhbench::fl {
namespace {

// Independent bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320) so the
// golden test does not trust the table-driven implementation under test.
std::uint32_t BitwiseCrc32(const std::vector<std::uint8_t>& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

template <typename T>
void PushLe(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF));
  }
}

void PushF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PushLe(out, bits);
}

// A snapshot exercising every primitive, shared by the golden-layout,
// round-trip and fuzz tests.
SnapshotWriter ExampleWriter() {
  SnapshotWriter w;
  w.BeginSection("alpha");
  w.WriteU8(0x5A);
  w.WriteU32(0xDEAD0001u);
  w.WriteI32(-2);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-5);
  w.WriteF64(1.5);
  w.WriteString("hi");
  w.WriteBytes({0xCA, 0xFE});
  w.WriteTensor(Tensor::FromVector({1, 2, 3}));
  w.EndSection();
  w.BeginSection("beta");
  w.WriteU32(7);
  w.EndSection();
  return w;
}

// Reads back every value ExampleWriter wrote; returns false if anything
// throws or mismatches (the fuzz oracle: a corrupted snapshot must never
// read back intact).
bool SurvivesIntact(const std::vector<std::uint8_t>& bytes) {
  try {
    SnapshotReader r{std::vector<std::uint8_t>(bytes)};
    if (r.version() != kSnapshotVersion) return false;
    if (r.SectionNames() != std::vector<std::string>({"alpha", "beta"})) {
      return false;
    }
    r.EnterSection("alpha");
    if (r.ReadU8() != 0x5A) return false;
    if (r.ReadU32() != 0xDEAD0001u) return false;
    if (r.ReadI32() != -2) return false;
    if (r.ReadU64() != 0x0123456789ABCDEFull) return false;
    if (r.ReadI64() != -5) return false;
    if (r.ReadF64() != 1.5) return false;
    if (r.ReadString() != "hi") return false;
    if (r.ReadBytes() != std::vector<std::uint8_t>({0xCA, 0xFE})) {
      return false;
    }
    const Tensor t = r.ReadTensor();
    if (!t.AllClose(Tensor::FromVector({1, 2, 3}), 0.0f)) return false;
    r.ExpectSectionEnd();
    r.EnterSection("beta");
    if (r.ReadU32() != 7u) return false;
    r.ExpectSectionEnd();
    return true;
  } catch (const Error&) {
    return false;
  }
}

TEST(SnapshotFormatTest, GoldenByteLayout) {
  // Hand-assemble the expected wire bytes for a two-section snapshot and
  // require the writer to produce them exactly.  This test IS the format
  // contract: if it fails, kSnapshotVersion must be bumped.
  std::vector<std::uint8_t> alpha;
  PushLe<std::uint8_t>(alpha, 0x5A);
  PushLe<std::uint32_t>(alpha, 0xDEAD0001u);
  PushLe<std::uint32_t>(alpha, static_cast<std::uint32_t>(-2));
  PushLe<std::uint64_t>(alpha, 0x0123456789ABCDEFull);
  PushLe<std::uint64_t>(alpha, static_cast<std::uint64_t>(-5));
  PushF64(alpha, 1.5);
  PushLe<std::uint32_t>(alpha, 2);  // string length
  alpha.push_back('h');
  alpha.push_back('i');
  PushLe<std::uint64_t>(alpha, 2);  // bytes length
  alpha.push_back(0xCA);
  alpha.push_back(0xFE);
  // SerializeTensor blob: i32 ndim, i32 extents, raw float32 data.
  PushLe<std::uint32_t>(alpha, 1);  // ndim
  PushLe<std::uint32_t>(alpha, 3);  // extent
  for (const float f : {1.0f, 2.0f, 3.0f}) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    PushLe(alpha, bits);
  }
  std::vector<std::uint8_t> beta;
  PushLe<std::uint32_t>(beta, 7);

  std::vector<std::uint8_t> expect;
  for (const char c : {'M', 'H', 'B', 'S', 'N', 'A', 'P', '1'}) {
    expect.push_back(static_cast<std::uint8_t>(c));
  }
  PushLe<std::uint32_t>(expect, kSnapshotVersion);
  PushLe<std::uint32_t>(expect, 2);  // section count
  const auto push_section = [&](const std::string& name,
                                const std::vector<std::uint8_t>& payload) {
    PushLe<std::uint32_t>(expect, static_cast<std::uint32_t>(name.size()));
    for (const char c : name) expect.push_back(static_cast<std::uint8_t>(c));
    PushLe<std::uint64_t>(expect, payload.size());
    PushLe<std::uint32_t>(expect, BitwiseCrc32(payload));
    expect.insert(expect.end(), payload.begin(), payload.end());
  };
  push_section("alpha", alpha);
  push_section("beta", beta);

  EXPECT_EQ(ExampleWriter().Finish(), expect);
}

TEST(SnapshotFormatTest, RoundTripReadsBack) {
  EXPECT_TRUE(SurvivesIntact(ExampleWriter().Finish()));
}

TEST(SnapshotFormatTest, FileRoundTrip) {
  const auto dir = testsupport::MakeTempDir();
  const std::string path = dir.File("snap.mhbsnap");
  ExampleWriter().WriteFile(path);
  SnapshotReader r = SnapshotReader::FromFile(path);
  r.EnterSection("beta");
  EXPECT_EQ(r.ReadU32(), 7u);
  r.ExpectSectionEnd();
}

TEST(SnapshotFormatTest, MissingFileThrows) {
  EXPECT_THROW(SnapshotReader::FromFile("/nonexistent/snap.mhbsnap"), Error);
}

TEST(SnapshotFormatTest, EveryByteFlipIsDetected) {
  const std::vector<std::uint8_t> bytes = ExampleWriter().Finish();
  ASSERT_TRUE(SurvivesIntact(bytes));
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[pos] ^= 0x01;
    EXPECT_FALSE(SurvivesIntact(corrupted)) << "flip at byte " << pos;
    corrupted[pos] = bytes[pos] ^ 0x80;
    EXPECT_FALSE(SurvivesIntact(corrupted)) << "high flip at byte " << pos;
  }
}

TEST(SnapshotFormatTest, EveryTruncationThrows) {
  const std::vector<std::uint8_t> bytes = ExampleWriter().Finish();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(SnapshotReader{std::move(prefix)}, Error) << "prefix " << n;
  }
}

TEST(SnapshotFormatTest, TrailingGarbageThrows) {
  std::vector<std::uint8_t> bytes = ExampleWriter().Finish();
  bytes.push_back(0x00);
  EXPECT_THROW(SnapshotReader{std::move(bytes)}, Error);
}

TEST(SnapshotFormatTest, BadMagicThrows) {
  std::vector<std::uint8_t> bytes = ExampleWriter().Finish();
  bytes[0] = 'X';
  EXPECT_THROW(SnapshotReader{std::move(bytes)}, Error);
}

TEST(SnapshotFormatTest, CrossVersionIsRejected) {
  // No in-place migration: version-1 readers reject both older and newer
  // snapshots (the version word is bytes [8, 12)).
  for (const std::uint32_t other : {0u, 2u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> bytes = ExampleWriter().Finish();
    std::memcpy(bytes.data() + 8, &other, sizeof(other));
    EXPECT_THROW(SnapshotReader{std::move(bytes)}, Error) << other;
  }
}

TEST(SnapshotFormatTest, DuplicateSectionNameIsRejected) {
  // The writer refuses to create one...
  SnapshotWriter w;
  w.BeginSection("dup");
  w.EndSection();
  EXPECT_THROW(w.BeginSection("dup"), Error);
  // ...and the reader refuses to parse a hand-crafted one.
  std::vector<std::uint8_t> payload;
  PushLe<std::uint32_t>(payload, 1);
  std::vector<std::uint8_t> bytes;
  for (const char c : {'M', 'H', 'B', 'S', 'N', 'A', 'P', '1'}) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  PushLe<std::uint32_t>(bytes, kSnapshotVersion);
  PushLe<std::uint32_t>(bytes, 2);
  for (int rep = 0; rep < 2; ++rep) {
    PushLe<std::uint32_t>(bytes, 3);
    for (const char c : {'d', 'u', 'p'}) {
      bytes.push_back(static_cast<std::uint8_t>(c));
    }
    PushLe<std::uint64_t>(bytes, payload.size());
    PushLe<std::uint32_t>(bytes, BitwiseCrc32(payload));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  EXPECT_THROW(SnapshotReader{std::move(bytes)}, Error);
}

TEST(SnapshotFormatTest, ReadPastSectionEndThrows) {
  SnapshotReader r{ExampleWriter().Finish()};
  r.EnterSection("beta");
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_THROW(r.ReadU8(), Error);
}

TEST(SnapshotFormatTest, LeftoverBytesFailSectionEnd) {
  SnapshotReader r{ExampleWriter().Finish()};
  r.EnterSection("beta");  // 4 unread payload bytes
  EXPECT_THROW(r.ExpectSectionEnd(), Error);
}

TEST(SnapshotFormatTest, UnknownSectionThrows) {
  SnapshotReader r{ExampleWriter().Finish()};
  EXPECT_FALSE(r.HasSection("gamma"));
  EXPECT_TRUE(r.HasSection("alpha"));
  EXPECT_THROW(r.EnterSection("gamma"), Error);
  EXPECT_THROW(r.SectionPayload("gamma"), Error);
}

TEST(SnapshotFormatTest, WriterMisuseThrows) {
  SnapshotWriter w;
  EXPECT_THROW(w.WriteU8(1), Error);      // write outside a section
  EXPECT_THROW(w.EndSection(), Error);    // end without begin
  w.BeginSection("a");
  EXPECT_THROW(w.BeginSection("b"), Error);  // nested begin
  EXPECT_THROW(w.Finish(), Error);           // finish with open section
}

TEST(SnapshotFormatTest, SectionPayloadIsExactBytes) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.WriteU32(0x11223344u);
  w.EndSection();
  SnapshotReader r{w.Finish()};
  EXPECT_EQ(r.SectionPayload("s"),
            std::vector<std::uint8_t>({0x44, 0x33, 0x22, 0x11}));
}

}  // namespace
}  // namespace mhbench::fl
