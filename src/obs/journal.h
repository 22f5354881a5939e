// Bounded-memory client event journal (DESIGN.md §5j).
//
// The registry's per-client timeline used to be retained in memory for the
// whole run (O(clients x rounds)) and dumped as clients.csv at exit — the
// exact shape that cannot survive FedScale-class fleets.  The journal
// replaces that: at every round barrier the registry drains the round's
// client rows into a ClientJournalWriter, which appends one compact binary
// block to `clients.mhbj` and reuses its write buffer, so obs-layer client
// memory is O(round cohort + write buffer), never O(fleet x rounds).
// `tools/mhb_journal.py csv` converts the stream back into the legacy
// clients.csv schema.
//
// Wire format (little-endian throughout, MHBSNAP-style framing + CRC):
//
//   header   "MHBJRNL1" (8 bytes) | u32 version | f64 sample_rate
//            | u64 sample_seed
//   block*   u64 payload_len | u32 crc32(payload) | payload
//   payload  u32 round | u32 run_len | run bytes | u32 record_count
//            | record*
//   record   i32 client | u32 tier_len | tier bytes | u8 drop_code
//            | f64 sim_compute_s | f64 sim_comm_s | f64 memory_mb
//            | i64 bytes_up | i64 bytes_down | i64 train_mflops
//
// drop_code: 0 = trained, 1 = offline, 2 = straggler.  The checksum is
// core/crc32.h's, the same one snapshot sections carry.
//
// Determinism: the measured wall time is deliberately NOT in the record
// (it lives in the client_wall_us histograms) — every field is a pure
// function of the cost model and the serial phase-1 draws, so journal
// BYTES are bit-identical across --threads and exporter on/off.  Any
// format change bumps kVersion; readers reject other versions outright.
//
// Client sampling: `sample_rate` keeps a deterministic seed-hashed subset
// of clients (JournalSampleClient) — the same clients at any thread count,
// with the decision recorded in the header for provenance.  Rate 1 keeps
// everyone (the paper-grid default).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/bytes.h"
#include "obs/registry.h"

namespace mhbench::obs {

// Deterministic per-client sampling decision: a SplitMix64-style hash of
// (seed, client) mapped to [0, 1) and compared against `rate`.  A pure
// function — the kept subset is identical for any thread count or call
// order.  Rate >= 1 keeps every client; rate <= 0 keeps none.
bool JournalSampleClient(std::uint64_t seed, int client, double rate);

class ClientJournalWriter {
 public:
  static constexpr std::uint32_t kVersion = 1;

  struct Options {
    double sample_rate = 1.0;
    std::uint64_t sample_seed = 0;
  };

  // Creates/truncates `path` and writes the header.  Throws mhbench::Error
  // on I/O failure.
  ClientJournalWriter(const std::string& path, const Options& options);
  ~ClientJournalWriter();

  ClientJournalWriter(const ClientJournalWriter&) = delete;
  ClientJournalWriter& operator=(const ClientJournalWriter&) = delete;

  // Appends one round barrier's client rows as a single block (rows must
  // share one run/round — the registry drains exactly one round at a
  // time).  Rows failing the sampling decision are skipped.  The write
  // buffer is reused across calls; an empty `rows` is a no-op.  Serial
  // phases only (the registry invokes the client-row sink on the barrier
  // thread).  Throws mhbench::Error on I/O failure.
  void Append(const std::vector<Registry::ClientRow>& rows);

  // Flushes and closes the stream.  Idempotent; the destructor calls it.
  void Close();

  std::int64_t blocks_written() const { return blocks_; }
  std::int64_t records_written() const { return records_; }
  // High-water mark of the reusable block buffer: the journal's only
  // per-round allocation, bounded by the largest cohort — the
  // bounded-memory tests assert it stays flat as rounds accumulate.
  std::size_t peak_block_bytes() const { return peak_block_bytes_; }

 private:
  void Write(const ByteWriter& bytes);

  const std::string path_;
  const Options options_;
  std::ofstream out_;
  ByteWriter buf_;
  std::int64_t blocks_ = 0;
  std::int64_t records_ = 0;
  std::size_t peak_block_bytes_ = 0;
};

struct ClientJournalContents {
  std::uint32_t version = 0;
  double sample_rate = 1.0;
  std::uint64_t sample_seed = 0;
  // The decoded rows, run/round denormalized from their blocks; wall_ms is
  // not journaled and reads 0.
  std::vector<Registry::ClientRow> records;
};

// Reads and fully validates a journal: magic, version, every block's frame
// and CRC, every record's bounds.  Throws mhbench::Error on any corruption
// — a flipped bit or truncated tail never yields partial silent data.
ClientJournalContents ReadClientJournal(const std::string& path);

}  // namespace mhbench::obs
