#include "core/bytes.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "support/temp_dir.h"

namespace mhbench {
namespace {

using Bytes = std::vector<std::uint8_t>;

// One of every primitive, shared by the known-answer and prefix tests.
Bytes MixedRecord() {
  ByteWriter w;
  w.U8(0xA5);
  w.U32(0x01020304u);
  w.I32(-2);
  w.U64(0x0102030405060708ull);
  w.I64(-3);
  w.F64(1.0);
  w.String("ok");
  const std::uint8_t raw[] = {0xCA, 0xFE};
  w.Raw(raw, sizeof(raw));
  return w.Release();
}

TEST(ByteWriterTest, KnownAnswerBytes) {
  const Bytes expect = {
      0xA5,                                            // u8
      0x04, 0x03, 0x02, 0x01,                          // u32
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
      0x02, 0x00, 0x00, 0x00, 'o',  'k',               // string
      0xCA, 0xFE,                                      // raw
  };
  EXPECT_EQ(MixedRecord(), expect);
}

TEST(ByteWriterTest, PatchU32OverwritesAPlaceholder) {
  ByteWriter w;
  w.U8(0x11);
  const std::size_t pos = w.size();
  w.U32(0);
  w.U8(0x22);
  w.PatchU32(pos, 0xAABBCCDDu);
  EXPECT_EQ(w.bytes(), Bytes({0x11, 0xDD, 0xCC, 0xBB, 0xAA, 0x22}));
  EXPECT_THROW(w.PatchU32(3, 0), Error);  // would run past the end
}

TEST(ByteWriterTest, ClearKeepsCapacityAndReleaseEmpties) {
  ByteWriter w;
  w.U64(1);
  const std::size_t capacity = w.bytes().capacity();
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.bytes().capacity(), capacity);
  w.U32(7);
  EXPECT_EQ(w.Release(), Bytes({7, 0, 0, 0}));
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteReaderTest, ReadsBackEveryPrimitive) {
  const Bytes bytes = MixedRecord();
  ByteReader r(bytes, "record");
  EXPECT_EQ(r.U8(), 0xA5);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_EQ(r.I32(), -2);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.I64(), -3);
  EXPECT_EQ(r.F64(), 1.0);
  EXPECT_EQ(r.String(), "ok");
  std::uint8_t raw[2] = {};
  r.Raw(raw, sizeof(raw));
  EXPECT_EQ(raw[0], 0xCA);
  EXPECT_EQ(raw[1], 0xFE);
  EXPECT_EQ(r.remaining(), 0u);
  r.ExpectEnd();
}

TEST(ByteReaderTest, EveryStrictPrefixThrows) {
  const Bytes bytes = MixedRecord();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const Bytes prefix(bytes.begin(), bytes.begin() + n);
    ByteReader r(prefix, "record");
    EXPECT_THROW(
        {
          r.U8();
          r.U32();
          r.I32();
          r.U64();
          r.I64();
          r.F64();
          r.String();
          r.Take(2);
        },
        Error)
        << "prefix " << n;
  }
}

TEST(ByteReaderTest, ExpectEndRejectsTrailingBytes) {
  const Bytes bytes = {1, 2, 3};
  ByteReader r(bytes, "record");
  r.U8();
  EXPECT_THROW(r.ExpectEnd(), Error);
  r.Take(2);
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(ByteReaderTest, StringLengthIsCheckedBeforeAllocating) {
  // The bytes are all there, but the length exceeds the caller's bound.
  ByteWriter w;
  w.String(std::string(100, 'x'));
  ByteReader bounded(w.bytes(), "record");
  EXPECT_THROW(bounded.String(16), Error);

  // A forged 4 GiB length with nothing behind it: throws `Error` from the
  // bounds check rather than reserving the claimed size.
  const Bytes forged = {0xFF, 0xFF, 0xFF, 0xFF, 'x'};
  ByteReader unbounded(forged, "record");
  EXPECT_THROW(unbounded.String(), Error);
}

TEST(ByteReaderTest, ErrorNamesTheArtifact) {
  const Bytes bytes = {1};
  ByteReader r(bytes, "widget header");
  try {
    r.U32();
    FAIL() << "expected a truncation error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("widget header"), std::string::npos)
        << e.what();
  }
}

TEST(FileBytesTest, WriteFileAtomicReplacesAndLeavesNoTemp) {
  const auto dir = testsupport::MakeTempDir();
  const std::string path = dir.File("artifact.bin");
  WriteFileAtomic(path, "first version, longer than the second");
  WriteFileAtomic(path, Bytes({0x00, 0xFF, 0x10}));
  EXPECT_EQ(ReadFileBytes(path), Bytes({0x00, 0xFF, 0x10}));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(FileBytesTest, ReadFileBytesRoundTripsEmptyFile) {
  const auto dir = testsupport::MakeTempDir();
  const std::string path = dir.File("empty.bin");
  WriteFileAtomic(path, std::string());
  EXPECT_TRUE(ReadFileBytes(path).empty());
}

TEST(FileBytesTest, MissingPathThrows) {
  const auto dir = testsupport::MakeTempDir();
  EXPECT_THROW(ReadFileBytes(dir.File("missing.bin")), Error);
  // The temp file cannot be created in a directory that does not exist.
  EXPECT_THROW(WriteFileAtomic(dir.File("no/such/dir.bin"), "x"), Error);
}

}  // namespace
}  // namespace mhbench
