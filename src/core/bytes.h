// Little-endian byte codec and whole-file I/O shared by every binary
// artifact: MHBSNAP1 snapshots and the ParamStore / tensor blobs inside
// them (fl/checkpoint.h, tensor/serialize.h), the MHBJRNL1 client journal
// (obs/journal.h), and the det-audit hash (obs/det_audit.h).
//
// Wire primitives are fixed-width little-endian integers and IEEE doubles
// copied as raw host bytes (this file asserts a little-endian host, the one
// place the assumption lives), plus u32-length-prefixed strings.  The
// reader checks every length against the bytes left BEFORE it copies or
// allocates, so a forged length throws `Error` instead of reserving memory
// the buffer cannot back.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mhbench {

static_assert(std::endian::native == std::endian::little,
              "the binary artifact formats assume a little-endian host");

// Appends primitives to a growable byte buffer.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { Put(v); }
  void I32(std::int32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void I64(std::int64_t v) { Put(v); }
  void F64(double v) { Put(v); }
  // u32 length prefix + raw bytes.
  void String(std::string_view s);
  // Raw bytes, no prefix (one bulk copy).
  void Raw(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), b, b + n);
  }
  // Overwrites the u32 written at byte offset `pos` (a count written as a
  // placeholder before the items it counts).
  void PatchU32(std::size_t pos, std::uint32_t v);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  // Empties the buffer but keeps its capacity, for a writer reused per
  // block.
  void Clear() { buf_.clear(); }
  // Moves the buffer out; the writer is left empty.
  std::vector<std::uint8_t> Release() { return std::move(buf_); }

 private:
  template <typename T>
  void Put(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(v));
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }

  std::vector<std::uint8_t> buf_;
};

// Bounds-checked cursor over a byte range it does not own.  Every read
// checks remaining() first and throws `Error` naming `what` on a short
// buffer.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string what)
      : data_(data), size_(size), what_(std::move(what)) {}
  ByteReader(const std::vector<std::uint8_t>& bytes, std::string what)
      : ByteReader(bytes.data(), bytes.size(), std::move(what)) {}

  std::uint8_t U8() { return *Take(1); }
  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::int32_t I32() { return Get<std::int32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int64_t I64() { return Get<std::int64_t>(); }
  double F64() { return Get<double>(); }
  // u32 length prefix + bytes; a length above `max_len` throws before
  // anything is allocated.
  std::string String(
      std::uint32_t max_len = std::numeric_limits<std::uint32_t>::max());
  // Copies the next `n` bytes into `out`.
  void Raw(void* out, std::size_t n) {
    const std::uint8_t* p = Take(n);
    if (n != 0) std::memcpy(out, p, n);
  }
  // Returns the next `n` bytes in place and advances past them.
  const std::uint8_t* Take(std::size_t n) {
    if (n > remaining()) ThrowTruncated(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }
  // Throws unless every byte was consumed.
  void ExpectEnd() const;

 private:
  template <typename T>
  T Get() {
    T v{};
    std::memcpy(&v, Take(sizeof(v)), sizeof(v));
    return v;
  }
  [[noreturn]] void ThrowTruncated(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string what_;
};

// Whole file as bytes; throws `Error` if it cannot be opened or read.
std::vector<std::uint8_t> ReadFileBytes(const std::string& path);

// Atomic publish: writes `<path>.tmp`, then renames it over `path`, so a
// reader never sees a torn file and a crash mid-write leaves the previous
// version intact.  Throws `Error` on any I/O failure.
void WriteFileAtomic(const std::string& path, std::string_view content);
void WriteFileAtomic(const std::string& path,
                     const std::vector<std::uint8_t>& bytes);

// Appends `content` to `path` (created if missing) with one write, then
// flushes.  Not atomic: a concurrent reader may see a partial tail until
// the call returns.  Throws `Error` on any I/O failure.
void AppendFile(const std::string& path, std::string_view content);

}  // namespace mhbench
