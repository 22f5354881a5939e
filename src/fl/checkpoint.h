// Engine-level snapshot subsystem (DESIGN.md §5g).
//
// A snapshot is a versioned little-endian binary file with CRC-checked
// named sections:
//
//   [0]  magic   "MHBSNAP1"                      (8 bytes)
//   [8]  version uint32                          (kSnapshotVersion)
//   [12] count   uint32                          (number of sections)
//   then per section, in write order:
//        uint32 name length, raw name bytes,
//        uint64 payload length, uint32 CRC-32 of the payload,
//        payload bytes
//
// Section payloads are flat streams of the primitives below, encoded and
// decoded by core/bytes (which holds the little-endian host assertion).
// The reader validates magic, version, section bounds and every CRC up
// front, and every typed read is bounds-checked, so truncated or corrupted
// snapshots throw `Error` instead of resuming from garbage.
//
// Version policy: kSnapshotVersion is bumped on ANY wire-format change —
// there is no in-place migration; a reader rejects every version other
// than its own.  Bit-identical resume across versions is not a supported
// contract, so rejecting loudly beats decoding approximately.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bytes.h"
#include "tensor/tensor.h"

namespace mhbench::fl {

inline constexpr char kSnapshotMagic[8] = {'M', 'H', 'B', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
// Plausibility bound on section names, snapshot strings and ParamStore
// parameter names; anything longer is corruption.
inline constexpr std::uint32_t kMaxSnapshotNameLen = 4096;

// Serializes named sections of primitive values into the snapshot wire
// format.  Usage: BeginSection, primitive writes, EndSection (repeat),
// then Finish() or WriteFile().
class SnapshotWriter {
 public:
  void BeginSection(const std::string& name);
  void EndSection();

  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteI32(std::int32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteF64(double v);
  // uint32 length prefix + raw bytes.
  void WriteString(const std::string& s);
  void WriteBytes(const std::vector<std::uint8_t>& bytes);
  // SerializeTensor blob (self-describing; no extra prefix).
  void WriteTensor(const Tensor& t);

  // Assembles header + all finished sections.  The writer stays usable
  // (Finish is const), so tests can snapshot intermediate states.
  std::vector<std::uint8_t> Finish() const;
  // Finish() to `path` via a temp file + rename, so an interrupted write
  // never leaves a half-snapshot under the final name.  The write is a
  // "snapshot_write" span on the context's tracer and publishes
  // `checkpoint_writes` / `checkpoint_bytes` / `checkpoint_write_us`
  // counters to the context's registry (obs/obs_config.h; serial barrier
  // phases only).  Bytes and write counts are thread-count independent
  // (the resume determinism test asserts it); write_us is wall time and is
  // only asserted non-zero.
  void WriteFile(const std::string& path) const;

 private:
  ByteWriter& Payload();

  bool in_section_ = false;
  std::string section_name_;
  ByteWriter payload_;  // the open section's payload
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

// Parses and validates a snapshot, then serves bounds-checked typed reads
// from one section at a time (EnterSection sets the cursor).
class SnapshotReader {
 public:
  // Validates magic, version, section framing and every CRC; throws
  // `Error` on any inconsistency.
  explicit SnapshotReader(std::vector<std::uint8_t> bytes);
  // The load is a "snapshot_read" span on the context's tracer and
  // publishes a `checkpoint_read_bytes` counter to the context's registry
  // (serial restore phase only).
  static SnapshotReader FromFile(const std::string& path);

  std::uint32_t version() const { return version_; }
  std::vector<std::string> SectionNames() const;  // write order
  bool HasSection(const std::string& name) const;

  // Positions the read cursor at the start of `name` (throws if absent).
  void EnterSection(const std::string& name);
  // Throws unless the entered section was consumed exactly.
  void ExpectSectionEnd() const;

  std::uint8_t ReadU8();
  std::uint32_t ReadU32();
  std::int32_t ReadI32();
  std::uint64_t ReadU64();
  std::int64_t ReadI64();
  double ReadF64();
  std::string ReadString();
  std::vector<std::uint8_t> ReadBytes();
  Tensor ReadTensor();

  // Raw payload of a section (bit-identity comparisons in tests).
  const std::vector<std::uint8_t>& SectionPayload(
      const std::string& name) const;

 private:
  ByteReader& Section();

  std::uint32_t version_ = 0;
  std::vector<std::string> order_;
  std::map<std::string, std::vector<std::uint8_t>> sections_;
  std::optional<ByteReader> section_;  // cursor over the entered section
};

}  // namespace mhbench::fl
