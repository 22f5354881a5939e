// Low-overhead span tracing for the FL engine.
//
// A Tracer collects named, timestamped spans into per-thread buffers (no
// shared lock on the hot path after a thread's first span) and exports them
// as Chrome-tracing JSON (loadable in chrome://tracing or Perfetto) and as
// a JSONL event log.  Spans live on two tracks: the wall clock (pid 1,
// one lane per OS thread) and the simulated clock (pid 2, one lane per
// client), which the engine records whenever a tracer is attached.
//
// A Span records into the tracer of the calling thread's context
// (obs/obs_config.h: FlEngine::Run installs it, core::ParallelFor hands it
// to every task).  With no tracer there, Span construction, Arg() and End()
// are branch-only no-ops that allocate nothing, so instrumented code needs
// no #ifdefs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs_config.h"

namespace mhbench::obs {

// Escapes a string for embedding inside a JSON string literal (quotes,
// backslashes, and control characters; the latter as \u00XX).
std::string JsonEscape(const std::string& s);

struct TraceEvent {
  std::string name;
  std::string cat;
  std::int64_t ts_us = 0;   // start, microseconds since the tracer epoch
  std::int64_t dur_us = 0;  // duration, microseconds
  int pid = 1;              // 1 = wall-clock track, 2 = sim-clock track
  int tid = 0;              // lane: dense thread index (wall) / client (sim)
  // Numeric or string arguments; string values must be pre-escaped by the
  // producer only if they contain JSON-special characters (Export escapes).
  std::vector<std::pair<std::string, std::string>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

class Tracer {
 public:
  static constexpr int kWallPid = 1;
  static constexpr int kSimPid = 2;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Microseconds elapsed since construction (the trace epoch).
  std::int64_t NowUs() const;

  // Appends a finished event.  Thread-safe; events land in the calling
  // thread's buffer.  `e.tid` is ignored for wall-track events (the dense
  // thread index is filled in), honoured for sim-track events.
  void Record(TraceEvent e);

  // Convenience for simulated-clock spans: timestamps are simulated seconds
  // converted to microseconds so trace viewers show the sim timeline.
  void RecordSim(std::string name, std::string cat, double sim_start_s,
                 double sim_dur_s, int lane,
                 std::vector<std::pair<std::string, std::string>> num_args = {});

  // All events recorded so far, merged across threads and sorted by
  // (pid, ts).  Thread-safe, but intended for after the traced workload.
  std::vector<TraceEvent> Snapshot() const;

  std::string ToChromeJson() const;  // JSON array of complete ("X") events
  std::string ToJsonl() const;       // one JSON object per line

 private:
  std::chrono::steady_clock::time_point epoch_;
  // One event buffer per recording thread; a buffer's index is its wall
  // lane, filled into wall-track events by Snapshot.
  ThreadSinks<std::vector<TraceEvent>> buffers_;
};

// RAII wall-clock span on the context's tracer.  Records a complete event
// on destruction (or End()).  With no tracer in the context it is inert: no
// clock read, no allocation, no buffer touch.
class Span {
 public:
  Span(const char* name, const char* cat);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  explicit operator bool() const { return tracer_ != nullptr; }

  // Attach arguments (shown in the trace viewer's detail pane).  No-ops
  // when disabled.
  void Arg(const char* key, std::int64_t value);
  void Arg(const char* key, double value);
  void Arg(const char* key, const std::string& value);

  // Records the event now; further calls are no-ops.
  void End();

 private:
  Tracer* tracer_ = nullptr;
  TraceEvent event_;
};

}  // namespace mhbench::obs
