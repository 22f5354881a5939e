#include "fl/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "core/crc32.h"
#include "core/error.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/serialize.h"

namespace mhbench::fl {

// mhb-obs-phase: serial — snapshots are written/read only at round
// barriers (and before round 0), never with client work in flight.

// ---------------------------------------------------------------------------
// SnapshotWriter

ByteWriter& SnapshotWriter::Payload() {
  MHB_CHECK(in_section_) << "snapshot write outside BeginSection/EndSection";
  return payload_;
}

void SnapshotWriter::BeginSection(const std::string& name) {
  MHB_CHECK(!in_section_) << "BeginSection inside an open section" << name;
  MHB_CHECK(!name.empty() && name.size() <= kMaxSnapshotNameLen)
      << "bad section name length" << name.size();
  for (const auto& [existing, payload] : sections_) {
    MHB_CHECK(existing != name) << "duplicate snapshot section" << name;
  }
  in_section_ = true;
  section_name_ = name;
  payload_.Clear();
}

void SnapshotWriter::EndSection() {
  MHB_CHECK(in_section_) << "EndSection without BeginSection";
  sections_.emplace_back(section_name_, payload_.Release());
  in_section_ = false;
}

void SnapshotWriter::WriteU8(std::uint8_t v) { Payload().U8(v); }
void SnapshotWriter::WriteU32(std::uint32_t v) { Payload().U32(v); }
void SnapshotWriter::WriteI32(std::int32_t v) { Payload().I32(v); }
void SnapshotWriter::WriteU64(std::uint64_t v) { Payload().U64(v); }
void SnapshotWriter::WriteI64(std::int64_t v) { Payload().I64(v); }
void SnapshotWriter::WriteF64(double v) { Payload().F64(v); }

void SnapshotWriter::WriteString(const std::string& s) {
  MHB_CHECK_LE(s.size(), kMaxSnapshotNameLen) << "snapshot string too long";
  Payload().String(s);
}

void SnapshotWriter::WriteBytes(const std::vector<std::uint8_t>& bytes) {
  ByteWriter& out = Payload();
  out.U64(bytes.size());
  out.Raw(bytes.data(), bytes.size());
}

void SnapshotWriter::WriteTensor(const Tensor& t) {
  SerializeTensor(t, Payload());
}

std::vector<std::uint8_t> SnapshotWriter::Finish() const {
  MHB_CHECK(!in_section_) << "Finish with an open section" << section_name_;
  ByteWriter out;
  out.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.U32(kSnapshotVersion);
  out.U32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    out.String(name);
    out.U64(payload.size());
    out.U32(Crc32(payload.data(), payload.size()));
    out.Raw(payload.data(), payload.size());
  }
  return out.Release();
}

void SnapshotWriter::WriteFile(const std::string& path,
                               const obs::ObsConfig* obs) const {
  obs::Tracer* const tracer = obs != nullptr ? obs->tracer : nullptr;
  obs::Registry* const reg = obs != nullptr ? obs->registry : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span(tracer, "snapshot_write", "checkpoint");
  const auto bytes = Finish();
  WriteFileAtomic(path, bytes);
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
  ByteReader in(bytes, "snapshot");
  MHB_CHECK(std::memcmp(in.Take(sizeof(kSnapshotMagic)), kSnapshotMagic,
                        sizeof(kSnapshotMagic)) == 0)
      << "not an mhbench snapshot (bad magic)";
  version_ = in.U32();
  MHB_CHECK_EQ(version_, kSnapshotVersion)
      << "unsupported snapshot version (no cross-version resume)";
  const std::uint32_t count = in.U32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.String(kMaxSnapshotNameLen);
    MHB_CHECK(!name.empty()) << "empty snapshot section name";
    const std::uint64_t payload_len = in.U64();
    const std::uint32_t crc = in.U32();
    const std::uint8_t* payload = in.Take(payload_len);
    MHB_CHECK_EQ(Crc32(payload, payload_len), crc)
        << "CRC mismatch in snapshot section" << name;
    MHB_CHECK(sections_.find(name) == sections_.end())
        << "duplicate snapshot section" << name;
    order_.push_back(name);
    sections_.emplace(std::move(name), std::vector<std::uint8_t>(
                                           payload, payload + payload_len));
  }
  in.ExpectEnd();
}

SnapshotReader SnapshotReader::FromFile(const std::string& path,
                                        const obs::ObsConfig* obs) {
  obs::Span span(obs != nullptr ? obs->tracer : nullptr, "snapshot_read",
                 "checkpoint");
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
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
  section_.emplace(SectionPayload(name), "snapshot section " + name);
}

ByteReader& SnapshotReader::Section() {
  MHB_CHECK(section_.has_value()) << "read before EnterSection";
  return *section_;
}

void SnapshotReader::ExpectSectionEnd() const {
  MHB_CHECK(section_.has_value()) << "no section entered";
  section_->ExpectEnd();
}

std::uint8_t SnapshotReader::ReadU8() { return Section().U8(); }
std::uint32_t SnapshotReader::ReadU32() { return Section().U32(); }
std::int32_t SnapshotReader::ReadI32() { return Section().I32(); }
std::uint64_t SnapshotReader::ReadU64() { return Section().U64(); }
std::int64_t SnapshotReader::ReadI64() { return Section().I64(); }
double SnapshotReader::ReadF64() { return Section().F64(); }

std::string SnapshotReader::ReadString() {
  return Section().String(kMaxSnapshotNameLen);
}

std::vector<std::uint8_t> SnapshotReader::ReadBytes() {
  ByteReader& in = Section();
  const std::uint64_t len = in.U64();
  const std::uint8_t* p = in.Take(len);
  return std::vector<std::uint8_t>(p, p + len);
}

Tensor SnapshotReader::ReadTensor() { return DeserializeTensor(Section()); }

}  // namespace mhbench::fl
