#include "timed_algorithm.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "fl/checkpoint.h"

namespace mhbench::e2e {
namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

// The calling thread's buffer, cached per recorder id (ids are never
// reused, so a stale cache entry can only miss, never alias).
struct LocalCache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

// Records one span on scope exit (exceptions included); inert without a
// recorder.
class Scope {
 public:
  Scope(SpanRecorder* spans, SpanKind kind)
      : spans_(spans), kind_(kind), start_(spans != nullptr ? NowNs() : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->Record(kind_, start_, NowNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* const spans_;
  const SpanKind kind_;
  const std::int64_t start_;
};

// Size of a snapshot section holding `fill`'s writes, less the framing an
// empty section costs.
template <typename Fill>
std::int64_t SectionBytes(Fill&& fill) {
  fl::SnapshotWriter empty;
  empty.BeginSection("algorithm");
  empty.EndSection();
  fl::SnapshotWriter w;
  w.BeginSection("algorithm");
  fill(w);
  w.EndSection();
  return static_cast<std::int64_t>(w.Finish().size()) -
         static_cast<std::int64_t>(empty.Finish().size());
}

}  // namespace

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup:
      return "algorithms.setup";
    case SpanKind::kBeginRound:
      return "algorithms.begin_round";
    case SpanKind::kRunClient:
      return "algorithms.run_client";
    case SpanKind::kFinishRound:
      return "algorithms.finish_round";
    case SpanKind::kGlobalLogits:
      return "algorithms.global_logits";
    case SpanKind::kPrepareEval:
      return "algorithms.prepare_eval";
    case SpanKind::kClientLogits:
      return "algorithms.client_logits";
    case SpanKind::kSaveState:
      return "algorithms.save_state";
    case SpanKind::kRoundSink:
      return "obs.round_sink";
    case SpanKind::kJournalAppend:
      return "obs.journal_append";
    case SpanKind::kBenchCount:
      return "bench.count";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : id_(g_next_recorder_id.fetch_add(1)) {}

SpanRecorder::Buffer* SpanRecorder::Local() {
  if (t_cache.recorder_id == id_) return static_cast<Buffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(4096);
  Buffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  t_cache = {id_, raw};
  return raw;
}

void SpanRecorder::Record(SpanKind kind, std::int64_t start_ns,
                          std::int64_t end_ns, std::int64_t bytes) {
  Buffer* buffer = Local();
  buffer->spans.push_back({start_ns, end_ns, bytes, buffer->thread, kind});
}

std::vector<SpanRec> SpanRecorder::Merge() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRec> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRec& a, const SpanRec& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  return all;
}

TimedAlgorithm::TimedAlgorithm(fl::MhflAlgorithm& inner, SpanRecorder* spans)
    : inner_(inner), spans_(spans) {}

std::string TimedAlgorithm::name() const { return inner_.name(); }

void TimedAlgorithm::Setup(const fl::FlContext& ctx, Rng& rng) {
  const std::int64_t start = NowNs();
  inner_.Setup(ctx, rng);
  const std::int64_t end = NowNs();
  setup_ns_ = end - start;
  if (spans_ != nullptr) spans_->Record(SpanKind::kSetup, start, end);
}

void TimedAlgorithm::BeginRound(int round,
                                const std::vector<int>& participants) {
  const std::int64_t start = NowNs();
  round_starts_ns_.push_back(start);
  inner_.BeginRound(round, participants);
  if (spans_ != nullptr) spans_->Record(SpanKind::kBeginRound, start, NowNs());
}

void TimedAlgorithm::RunClient(int client_id, int round, Rng& rng) {
  Scope scope(spans_, SpanKind::kRunClient);
  inner_.RunClient(client_id, round, rng);
}

void TimedAlgorithm::FinishRound(int round, Rng& rng) {
  Scope scope(spans_, SpanKind::kFinishRound);
  inner_.FinishRound(round, rng);
}

void TimedAlgorithm::PrepareEvaluation() {
  Scope scope(spans_, SpanKind::kPrepareEval);
  inner_.PrepareEvaluation();
}

Tensor TimedAlgorithm::GlobalLogits(const Tensor& x) {
  Scope scope(spans_, SpanKind::kGlobalLogits);
  return inner_.GlobalLogits(x);
}

Tensor TimedAlgorithm::ClientLogits(int client_id, const Tensor& x) {
  Scope scope(spans_, SpanKind::kClientLogits);
  return inner_.ClientLogits(client_id, x);
}

void TimedAlgorithm::SaveState(fl::SnapshotWriter& writer) const {
  if (spans_ == nullptr) {
    inner_.SaveState(writer);
    return;
  }
  const std::int64_t start = NowNs();
  inner_.SaveState(writer);
  const std::int64_t end = NowNs();
  // The engine's writer does not expose its open section, so the bytes are
  // counted on a second serialization, timed as the benchmark's own span.
  const std::int64_t bytes =
      SectionBytes([this](fl::SnapshotWriter& w) { inner_.SaveState(w); });
  spans_->Record(SpanKind::kSaveState, start, end, bytes);
  spans_->Record(SpanKind::kBenchCount, end, NowNs());
}

// Only checkpoint resume calls LoadState, and no workload resumes.
void TimedAlgorithm::LoadState(fl::SnapshotReader& reader) {
  inner_.LoadState(reader);
}

}  // namespace mhbench::e2e
