#include "obs/journal.h"

#include <cstring>

#include "core/crc32.h"
#include "core/error.h"
#include "core/rng.h"

namespace mhbench::obs {

namespace {

void PushU8(std::vector<std::uint8_t>& buf, std::uint8_t v) {
  buf.push_back(v);
}

void PushU32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PushU64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PushI32(std::vector<std::uint8_t>& buf, std::int32_t v) {
  PushU32(buf, static_cast<std::uint32_t>(v));
}

void PushI64(std::vector<std::uint8_t>& buf, std::int64_t v) {
  PushU64(buf, static_cast<std::uint64_t>(v));
}

void PushF64(std::vector<std::uint8_t>& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PushU64(buf, bits);
}

void PushString(std::vector<std::uint8_t>& buf, const std::string& s) {
  PushU32(buf, static_cast<std::uint32_t>(s.size()));
  buf.insert(buf.end(), s.begin(), s.end());
}

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

// Bounds-checked little-endian cursor over the loaded file bytes.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  const std::uint8_t* Take(std::size_t n) {
    if (n > remaining()) {
      throw Error(std::string("client journal: truncated ") + what_);
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::uint8_t U8() { return *Take(1); }

  std::uint32_t U32() {
    const std::uint8_t* p = Take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::uint64_t U64() {
    const std::uint8_t* p = Take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  double F64() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string String() {
    const std::uint32_t n = U32();
    const std::uint8_t* p = Take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

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
  buf_.clear();
  buf_.insert(buf_.end(), kMagic, kMagic + sizeof(kMagic));
  PushU32(buf_, kVersion);
  PushF64(buf_, options_.sample_rate);
  PushU64(buf_, options_.sample_seed);
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
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

  buf_.clear();
  // Payload is built first so the frame's length + CRC cover final bytes.
  PushU32(buf_, static_cast<std::uint32_t>(round));
  PushString(buf_, run);
  const std::size_t count_pos = buf_.size();
  PushU32(buf_, 0);  // record_count backpatched below
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
    PushI32(buf_, row.client);
    PushString(buf_, row.device_tier);
    PushU8(buf_, DropCode(row.drop_reason));
    PushF64(buf_, row.sim_compute_s);
    PushF64(buf_, row.sim_comm_s);
    PushF64(buf_, row.memory_mb);
    PushI64(buf_, row.bytes_up);
    PushI64(buf_, row.bytes_down);
    PushI64(buf_, row.train_mflops);
  }
  buf_[count_pos + 0] = static_cast<std::uint8_t>(kept & 0xFF);
  buf_[count_pos + 1] = static_cast<std::uint8_t>((kept >> 8) & 0xFF);
  buf_[count_pos + 2] = static_cast<std::uint8_t>((kept >> 16) & 0xFF);
  buf_[count_pos + 3] = static_cast<std::uint8_t>((kept >> 24) & 0xFF);

  std::vector<std::uint8_t> frame;
  frame.reserve(12);
  PushU64(frame, static_cast<std::uint64_t>(buf_.size()));
  PushU32(frame, Crc32(buf_.data(), buf_.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  // Flush per barrier: a killed run keeps every completed round's block.
  out_.flush();
  if (!out_.good()) throw Error("failed writing client journal " + path_);
  ++blocks_;
  records_ += kept;
  peak_block_bytes_ =
      peak_block_bytes_ > buf_.capacity() ? peak_block_bytes_ : buf_.capacity();
}

void ClientJournalWriter::Close() {
  if (!out_.is_open()) return;
  out_.flush();
  const bool ok = out_.good();
  out_.close();
  if (!ok) throw Error("failed writing client journal " + path_);
}

ClientJournalContents ReadClientJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw Error("cannot open client journal " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  Cursor header(bytes.data(), bytes.size(), "header");
  const std::uint8_t* magic = header.Take(sizeof(kMagic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("client journal " + path + ": bad magic");
  }
  ClientJournalContents contents;
  contents.version = header.U32();
  if (contents.version != ClientJournalWriter::kVersion) {
    throw Error("client journal " + path + ": unsupported version " +
                std::to_string(contents.version) + " (want " +
                std::to_string(ClientJournalWriter::kVersion) + ")");
  }
  contents.sample_rate = header.F64();
  contents.sample_seed = header.U64();

  std::size_t pos = header.pos();
  while (pos < bytes.size()) {
    Cursor frame(bytes.data() + pos, bytes.size() - pos, "block frame");
    const std::uint64_t payload_len = frame.U64();
    const std::uint32_t crc = frame.U32();
    if (payload_len > frame.remaining()) {
      throw Error("client journal " + path + ": truncated block payload");
    }
    const std::uint8_t* payload = bytes.data() + pos + frame.pos();
    if (Crc32(payload, static_cast<std::size_t>(payload_len)) != crc) {
      throw Error("client journal " + path + ": block CRC mismatch");
    }
    Cursor body(payload, static_cast<std::size_t>(payload_len), "block body");
    const int round = static_cast<int>(body.U32());
    const std::string run = body.String();
    const std::uint32_t count = body.U32();
    for (std::uint32_t i = 0; i < count; ++i) {
      ClientJournalRecord rec;
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
    if (body.remaining() != 0) {
      throw Error("client journal " + path + ": trailing bytes in block");
    }
    pos += frame.pos() + static_cast<std::size_t>(payload_len);
  }
  return contents;
}

}  // namespace mhbench::obs
