#include "obs/journal.h"

#include <algorithm>
#include <cstring>

#include "core/bytes.h"
#include "core/crc32.h"
#include "core/error.h"
#include "core/rng.h"

namespace mhbench::obs {

namespace {

constexpr char kMagic[8] = {'M', 'H', 'B', 'J', 'R', 'N', 'L', '1'};

std::uint8_t DropCode(const std::string& reason) {
  if (reason.empty()) return 0;
  if (reason == "offline") return 1;
  if (reason == "straggler") return 2;
  throw Error("client journal: unknown drop reason '" + reason + "'");
}

const char* DropReason(std::uint8_t code) {
  switch (code) {
    case 0:
      return "";
    case 1:
      return "offline";
    case 2:
      return "straggler";
    default:
      throw Error("client journal: unknown drop code " +
                  std::to_string(code));
  }
}

}  // namespace

bool JournalSampleClient(std::uint64_t seed, int client, double rate) {
  // SplitMix64 finalizer over (seed, client): a high-quality stateless
  // hash, so the kept subset is a pure function of the pair — identical at
  // any thread count, call order, or round.
  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(client)) + 1;
  const std::uint64_t x = SplitMix64Mix(seed + kSplitMix64Gamma * key);
  const double u =
      static_cast<double>(x >> 11) / 9007199254740992.0;  // [0, 1)
  return u < rate;
}

ClientJournalWriter::ClientJournalWriter(const std::string& path,
                                         const Options& options)
    : path_(path), options_(options) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.good()) throw Error("cannot open client journal " + path);
  ByteWriter header;
  header.Raw(kMagic, sizeof(kMagic));
  header.U32(kVersion);
  header.F64(options_.sample_rate);
  header.U64(options_.sample_seed);
  Write(header);
  out_.flush();
  if (!out_.good()) throw Error("failed writing client journal " + path);
}

ClientJournalWriter::~ClientJournalWriter() {
  try {
    Close();
  } catch (const Error&) {
    // Destructor must not throw; Close() failures surface when callers
    // close explicitly (the CLI does).
  }
}

void ClientJournalWriter::Append(const std::vector<Registry::ClientRow>& rows) {
  if (rows.empty()) return;
  if (!out_.is_open()) {
    throw Error("client journal " + path_ + " already closed");
  }
  const std::string& run = rows.front().run;
  const int round = rows.front().round;

  buf_.Clear();
  // Payload is built first so the frame's length + CRC cover final bytes.
  buf_.U32(static_cast<std::uint32_t>(round));
  buf_.String(run);
  const std::size_t count_pos = buf_.size();
  buf_.U32(0);  // record_count backpatched below
  std::uint32_t kept = 0;
  for (const auto& row : rows) {
    if (row.run != run || row.round != round) {
      throw Error("client journal: mixed rounds in one barrier drain");
    }
    if (!JournalSampleClient(options_.sample_seed, row.client,
                             options_.sample_rate)) {
      continue;
    }
    ++kept;
    buf_.I32(row.client);
    buf_.String(row.device_tier);
    buf_.U8(DropCode(row.drop_reason));
    buf_.F64(row.sim_compute_s);
    buf_.F64(row.sim_comm_s);
    buf_.F64(row.memory_mb);
    buf_.I64(row.bytes_up);
    buf_.I64(row.bytes_down);
    buf_.I64(row.train_mflops);
  }
  buf_.PatchU32(count_pos, kept);

  ByteWriter frame;
  frame.U64(buf_.size());
  frame.U32(Crc32(buf_.bytes().data(), buf_.size()));
  Write(frame);
  Write(buf_);
  // Flush per barrier: a killed run keeps every completed round's block.
  out_.flush();
  if (!out_.good()) throw Error("failed writing client journal " + path_);
  ++blocks_;
  records_ += kept;
  peak_block_bytes_ = std::max(peak_block_bytes_, buf_.bytes().capacity());
}

void ClientJournalWriter::Write(const ByteWriter& bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.bytes().data()),
             static_cast<std::streamsize>(bytes.size()));
}

void ClientJournalWriter::Close() {
  if (!out_.is_open()) return;
  out_.flush();
  const bool ok = out_.good();
  out_.close();
  if (!ok) throw Error("failed writing client journal " + path_);
}

ClientJournalContents ReadClientJournal(const std::string& path) {
  const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  const std::string what = "client journal " + path;
  ByteReader in(bytes, what);
  if (std::memcmp(in.Take(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw Error(what + ": bad magic");
  }
  ClientJournalContents contents;
  contents.version = in.U32();
  if (contents.version != ClientJournalWriter::kVersion) {
    throw Error(what + ": unsupported version " +
                std::to_string(contents.version) + " (want " +
                std::to_string(ClientJournalWriter::kVersion) + ")");
  }
  contents.sample_rate = in.F64();
  contents.sample_seed = in.U64();

  // A file cut at a block boundary reads as the blocks before the cut.
  while (in.remaining() > 0) {
    const std::uint64_t payload_len = in.U64();
    const std::uint32_t crc = in.U32();
    const std::uint8_t* payload = in.Take(payload_len);
    if (Crc32(payload, payload_len) != crc) {
      throw Error(what + ": block CRC mismatch");
    }
    ByteReader body(payload, payload_len, what + " block");
    const int round = static_cast<int>(body.U32());
    const std::string run = body.String();
    const std::uint32_t count = body.U32();
    for (std::uint32_t i = 0; i < count; ++i) {
      Registry::ClientRow rec;
      rec.run = run;
      rec.round = round;
      rec.client = body.I32();
      rec.device_tier = body.String();
      rec.drop_reason = DropReason(body.U8());
      rec.sim_compute_s = body.F64();
      rec.sim_comm_s = body.F64();
      rec.memory_mb = body.F64();
      rec.bytes_up = body.I64();
      rec.bytes_down = body.I64();
      rec.train_mflops = body.I64();
      contents.records.push_back(std::move(rec));
    }
    body.ExpectEnd();
  }
  return contents;
}

}  // namespace mhbench::obs
