#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>


namespace mhbench::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

std::int64_t Tracer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(TraceEvent e) { buffers_.Local().push_back(std::move(e)); }

void Tracer::RecordSim(
    std::string name, std::string cat, double sim_start_s, double sim_dur_s,
    int lane, std::vector<std::pair<std::string, std::string>> num_args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.pid = kSimPid;
  e.tid = lane;
  e.ts_us = static_cast<std::int64_t>(sim_start_s * 1e6);
  e.dur_us = static_cast<std::int64_t>(sim_dur_s * 1e6);
  e.num_args = std::move(num_args);
  Record(std::move(e));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> all;
  buffers_.ForEach([&all](std::size_t lane,
                          const std::vector<TraceEvent>& events) {
    for (const TraceEvent& e : events) {
      all.push_back(e);
      if (e.pid == kWallPid) all.back().tid = static_cast<int>(lane);
    }
  });
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.ts_us < b.ts_us;
                   });
  return all;
}

namespace {

void AppendEventJson(std::ostringstream& out, const TraceEvent& e) {
  out << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\""
      << JsonEscape(e.cat) << "\",\"ph\":\"X\",\"ts\":" << e.ts_us
      << ",\"dur\":" << e.dur_us << ",\"pid\":" << e.pid
      << ",\"tid\":" << e.tid;
  if (!e.num_args.empty() || !e.str_args.empty()) {
    out << ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : e.num_args) {
      if (!first) out << ",";
      first = false;
      out << "\"" << JsonEscape(k) << "\":" << v;
    }
    for (const auto& [k, v] : e.str_args) {
      if (!first) out << ",";
      first = false;
      out << "\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

std::string Tracer::ToChromeJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::ostringstream out;
  out << "[";
  // Name the two tracks so viewers label them.
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kWallPid
      << ",\"args\":{\"name\":\"wall clock\"}},\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
      << ",\"args\":{\"name\":\"simulated clock\"}}";
  for (const auto& e : events) {
    out << ",\n";
    AppendEventJson(out, e);
  }
  out << "]\n";
  return out.str();
}

std::string Tracer::ToJsonl() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::ostringstream out;
  for (const auto& e : events) {
    AppendEventJson(out, e);
    out << "\n";
  }
  return out.str();
}

Span::Span(const char* name, const char* cat)
    : tracer_(CurrentObs().tracer) {
  if (tracer_ == nullptr) return;
  event_.name = name;
  event_.cat = cat;
  event_.ts_us = tracer_->NowUs();
}

void Span::Arg(const char* key, std::int64_t value) {
  if (tracer_ == nullptr) return;
  event_.num_args.emplace_back(key, std::to_string(value));
}

void Span::Arg(const char* key, double value) {
  if (tracer_ == nullptr) return;
  std::ostringstream v;
  v << value;
  event_.num_args.emplace_back(key, v.str());
}

void Span::Arg(const char* key, const std::string& value) {
  if (tracer_ == nullptr) return;
  event_.str_args.emplace_back(key, value);
}

void Span::End() {
  if (tracer_ == nullptr) return;
  event_.dur_us = tracer_->NowUs() - event_.ts_us;
  tracer_->Record(std::move(event_));
  tracer_ = nullptr;
}

}  // namespace mhbench::obs
