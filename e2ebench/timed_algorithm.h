// Span recording for the end-to-end benchmark, taken at the algorithm
// interface from outside the library.
//
// TimedAlgorithm decorates an fl::MhflAlgorithm: it forwards every virtual
// call unchanged, so the engine runs exactly the program users run, and
// times the calls.  Untraced (no recorder) it reads the clock only at the
// round boundaries (BeginRound) and around Setup; traced, every forwarded
// call but LoadState becomes a span in the calling thread's buffer of a
// SpanRecorder.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fl/engine.h"

namespace mhbench::e2e {

// Nanoseconds on the steady clock since the first call in the process.
std::int64_t NowNs();

enum class SpanKind : std::uint8_t {
  // Decorated algorithm calls.
  kSetup,
  kBeginRound,
  kRunClient,
  kFinishRound,
  kGlobalLogits,
  kPrepareEval,
  kClientLogits,
  kSaveState,
  // Program telemetry sinks, installed by the benchmark (fleet-obs).
  kRoundSink,
  kJournalAppend,
  // The benchmark's own byte counting inside Run (SaveState, round sink);
  // a child of the run so it never counts as engine time.
  kBenchCount,
};

// Per-layer metric stem of a span kind, e.g. "algorithms.run_client".
const char* SpanName(SpanKind kind);

struct SpanRec {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Bytes the call produced (SaveState, round sink); 0 otherwise.
  std::int64_t bytes = 0;
  std::uint32_t thread = 0;  // recorder-local buffer index
  SpanKind kind = SpanKind::kSetup;
};

// Collects spans into one buffer per recording thread.  A thread takes the
// lock once per recorder, to register its buffer, and appends without
// locking from then on, so recording adds no lock to client dispatch.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t bytes = 0);

  // All spans, ordered by start.  Call only once the recording threads are
  // quiescent (after FlEngine::Run has returned).
  std::vector<SpanRec> Merge() const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRec> spans;
  };
  Buffer* Local();

  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

class TimedAlgorithm final : public fl::MhflAlgorithm {
 public:
  // `spans` null = untraced.  Neither pointer is owned; both must outlive
  // the engine run.
  TimedAlgorithm(fl::MhflAlgorithm& inner, SpanRecorder* spans);

  std::string name() const override;
  void Setup(const fl::FlContext& ctx, Rng& rng) override;
  void BeginRound(int round, const std::vector<int>& participants) override;
  void RunClient(int client_id, int round, Rng& rng) override;
  void FinishRound(int round, Rng& rng) override;
  void PrepareEvaluation() override;
  Tensor GlobalLogits(const Tensor& x) override;
  Tensor ClientLogits(int client_id, const Tensor& x) override;
  void SaveState(fl::SnapshotWriter& writer) const override;
  void LoadState(fl::SnapshotReader& reader) override;

  std::int64_t setup_ns() const { return setup_ns_; }
  // Entry time of every BeginRound call, in round order.
  const std::vector<std::int64_t>& round_starts_ns() const {
    return round_starts_ns_;
  }

 private:
  fl::MhflAlgorithm& inner_;
  SpanRecorder* const spans_;
  std::int64_t setup_ns_ = 0;
  std::vector<std::int64_t> round_starts_ns_;
};

}  // namespace mhbench::e2e
