#include "fl/checkpoint.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/crc32.h"
#include "core/error.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/serialize.h"

namespace mhbench::fl {

// mhb-obs-phase: serial — snapshots are written/read only at round
// barriers (and before round 0), never with client work in flight.

static_assert(std::endian::native == std::endian::little,
              "snapshot format assumes a little-endian host");

namespace {

// Section names and parameter names share the same plausibility bound as
// ParamStore's (param_store.cc); anything longer is corruption.
constexpr std::uint32_t kMaxNameLen = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

void SnapshotWriter::Append(const void* p, std::size_t n) {
  MHB_CHECK(in_section_) << "snapshot write outside BeginSection/EndSection";
  const auto* b = static_cast<const std::uint8_t*>(p);
  payload_.insert(payload_.end(), b, b + n);
}

void SnapshotWriter::BeginSection(const std::string& name) {
  MHB_CHECK(!in_section_) << "BeginSection inside an open section" << name;
  MHB_CHECK(!name.empty() && name.size() <= kMaxNameLen)
      << "bad section name length" << name.size();
  for (const auto& [existing, payload] : sections_) {
    MHB_CHECK(existing != name) << "duplicate snapshot section" << name;
  }
  in_section_ = true;
  section_name_ = name;
  payload_.clear();
}

void SnapshotWriter::EndSection() {
  MHB_CHECK(in_section_) << "EndSection without BeginSection";
  sections_.emplace_back(section_name_, std::move(payload_));
  payload_ = {};
  in_section_ = false;
}

void SnapshotWriter::WriteU8(std::uint8_t v) { Append(&v, sizeof(v)); }
void SnapshotWriter::WriteU32(std::uint32_t v) { Append(&v, sizeof(v)); }
void SnapshotWriter::WriteI32(std::int32_t v) { Append(&v, sizeof(v)); }
void SnapshotWriter::WriteU64(std::uint64_t v) { Append(&v, sizeof(v)); }
void SnapshotWriter::WriteI64(std::int64_t v) { Append(&v, sizeof(v)); }
void SnapshotWriter::WriteF64(double v) { Append(&v, sizeof(v)); }

void SnapshotWriter::WriteString(const std::string& s) {
  MHB_CHECK_LE(s.size(), kMaxNameLen) << "snapshot string too long";
  WriteU32(static_cast<std::uint32_t>(s.size()));
  Append(s.data(), s.size());
}

void SnapshotWriter::WriteBytes(const std::vector<std::uint8_t>& bytes) {
  WriteU64(static_cast<std::uint64_t>(bytes.size()));
  Append(bytes.data(), bytes.size());
}

void SnapshotWriter::WriteTensor(const Tensor& t) {
  const auto blob = SerializeTensor(t);
  Append(blob.data(), blob.size());
}

std::vector<std::uint8_t> SnapshotWriter::Finish() const {
  MHB_CHECK(!in_section_) << "Finish with an open section" << section_name_;
  std::vector<std::uint8_t> out;
  auto push = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  push(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersion;
  push(&version, sizeof(version));
  const std::uint32_t count = static_cast<std::uint32_t>(sections_.size());
  push(&count, sizeof(count));
  for (const auto& [name, payload] : sections_) {
    const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
    push(&name_len, sizeof(name_len));
    push(name.data(), name.size());
    const std::uint64_t payload_len =
        static_cast<std::uint64_t>(payload.size());
    push(&payload_len, sizeof(payload_len));
    const std::uint32_t crc = Crc32(payload.data(), payload.size());
    push(&crc, sizeof(crc));
    push(payload.data(), payload.size());
  }
  return out;
}

void SnapshotWriter::WriteFile(const std::string& path,
                               const obs::ObsConfig* obs) const {
  obs::Tracer* const tracer = obs != nullptr ? obs->tracer : nullptr;
  obs::Registry* const reg = obs != nullptr ? obs->registry : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span(tracer, "snapshot_write", "checkpoint");
  const auto bytes = Finish();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    MHB_CHECK(f.good()) << "cannot open" << tmp;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    MHB_CHECK(f.good()) << "write failed for" << tmp;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  MHB_CHECK(!ec) << "cannot move snapshot into place:" << ec.message();
  span.Arg("bytes", static_cast<std::int64_t>(bytes.size()));
  if (reg != nullptr) {
    const auto write_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Serial barrier phase: AddNamed registers lazily, which is safe here
    // because no client work is in flight during a checkpoint write.
    reg->AddNamed("checkpoint_writes", 1);
    reg->AddNamed("checkpoint_bytes",
                  static_cast<std::int64_t>(bytes.size()));
    // Wall time: lands in totals but is excluded from bit-identity
    // comparisons, like client_wall_us.
    reg->AddNamed("checkpoint_write_us",
                  std::max<std::int64_t>(1, write_us));
  }
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes) {
  std::size_t offset = 0;
  auto read = [&](void* p, std::size_t n) {
    MHB_CHECK_LE(n, bytes.size() - offset) << "truncated snapshot";
    std::memcpy(p, bytes.data() + offset, n);
    offset += n;
  };
  char magic[sizeof(kSnapshotMagic)];
  MHB_CHECK_GE(bytes.size(), sizeof(magic)) << "truncated snapshot";
  read(magic, sizeof(magic));
  MHB_CHECK(std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0)
      << "not an mhbench snapshot (bad magic)";
  read(&version_, sizeof(version_));
  MHB_CHECK_EQ(version_, kSnapshotVersion)
      << "unsupported snapshot version (no cross-version resume)";
  std::uint32_t count = 0;
  read(&count, sizeof(count));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    read(&name_len, sizeof(name_len));
    MHB_CHECK(name_len > 0 && name_len <= kMaxNameLen)
        << "implausible snapshot section name length" << name_len;
    std::string name(name_len, '\0');
    read(name.data(), name.size());
    std::uint64_t payload_len = 0;
    read(&payload_len, sizeof(payload_len));
    std::uint32_t crc = 0;
    read(&crc, sizeof(crc));
    // Bounds-check against the cursor AFTER the CRC word: checking before
    // it would admit a payload_len up to 4 bytes past the end of the file.
    MHB_CHECK_LE(payload_len, bytes.size() - offset)
        << "snapshot section" << name << "overruns the file";
    std::vector<std::uint8_t> payload(
        bytes.begin() + static_cast<std::ptrdiff_t>(offset),
        bytes.begin() + static_cast<std::ptrdiff_t>(offset + payload_len));
    offset += payload_len;
    MHB_CHECK_EQ(Crc32(payload.data(), payload.size()), crc)
        << "CRC mismatch in snapshot section" << name;
    MHB_CHECK(sections_.find(name) == sections_.end())
        << "duplicate snapshot section" << name;
    order_.push_back(name);
    sections_.emplace(name, std::move(payload));
  }
  MHB_CHECK_EQ(offset, bytes.size()) << "trailing bytes in snapshot";
}

SnapshotReader SnapshotReader::FromFile(const std::string& path,
                                        const obs::ObsConfig* obs) {
  obs::Span span(obs != nullptr ? obs->tracer : nullptr, "snapshot_read",
                 "checkpoint");
  std::ifstream f(path, std::ios::binary);
  MHB_CHECK(f.good()) << "cannot open snapshot" << path;
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  if (obs != nullptr && obs->registry != nullptr) {
    // Serial restore phase, before any client dispatch.
    obs->registry->AddNamed("checkpoint_read_bytes",
                            static_cast<std::int64_t>(bytes.size()));
  }
  span.Arg("bytes", static_cast<std::int64_t>(bytes.size()));
  return SnapshotReader(std::move(bytes));
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  return order_;
}

bool SnapshotReader::HasSection(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

const std::vector<std::uint8_t>& SnapshotReader::SectionPayload(
    const std::string& name) const {
  auto it = sections_.find(name);
  MHB_CHECK(it != sections_.end()) << "snapshot has no section" << name;
  return it->second;
}

void SnapshotReader::EnterSection(const std::string& name) {
  auto it = sections_.find(name);
  MHB_CHECK(it != sections_.end()) << "snapshot has no section" << name;
  current_ = &it->second;
  cursor_ = 0;
}

void SnapshotReader::ExpectSectionEnd() const {
  MHB_CHECK(current_ != nullptr) << "no section entered";
  MHB_CHECK_EQ(cursor_, current_->size())
      << "trailing bytes in snapshot section";
}

void SnapshotReader::ReadRaw(void* p, std::size_t n) {
  MHB_CHECK(current_ != nullptr) << "read before EnterSection";
  MHB_CHECK_LE(n, current_->size() - cursor_)
      << "truncated snapshot section";
  std::memcpy(p, current_->data() + cursor_, n);
  cursor_ += n;
}

std::uint8_t SnapshotReader::ReadU8() {
  std::uint8_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}
std::uint32_t SnapshotReader::ReadU32() {
  std::uint32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}
std::int32_t SnapshotReader::ReadI32() {
  std::int32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}
std::uint64_t SnapshotReader::ReadU64() {
  std::uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}
std::int64_t SnapshotReader::ReadI64() {
  std::int64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}
double SnapshotReader::ReadF64() {
  double v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

std::string SnapshotReader::ReadString() {
  const std::uint32_t len = ReadU32();
  MHB_CHECK_LE(len, kMaxNameLen) << "implausible snapshot string length";
  std::string s(len, '\0');
  ReadRaw(s.data(), s.size());
  return s;
}

std::vector<std::uint8_t> SnapshotReader::ReadBytes() {
  const std::uint64_t len = ReadU64();
  MHB_CHECK(current_ != nullptr) << "read before EnterSection";
  MHB_CHECK_LE(len, current_->size() - cursor_)
      << "truncated snapshot byte blob";
  std::vector<std::uint8_t> out(
      current_->begin() + static_cast<std::ptrdiff_t>(cursor_),
      current_->begin() + static_cast<std::ptrdiff_t>(cursor_ + len));
  cursor_ += len;
  return out;
}

Tensor SnapshotReader::ReadTensor() {
  MHB_CHECK(current_ != nullptr) << "read before EnterSection";
  // DeserializeTensor bounds-checks against the section payload and
  // advances the cursor past the blob.
  return DeserializeTensor(*current_, cursor_);
}

}  // namespace mhbench::fl
