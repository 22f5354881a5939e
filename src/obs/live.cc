#include "obs/live.h"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "obs/manifest.h"
#include "obs/trace.h"

namespace mhbench::obs {

namespace {

std::string FmtD(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

// Prometheus metric names allow [a-zA-Z0-9_:]; registry counter names are
// already lowercase identifiers, but sanitize defensively.
std::string MetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

// Wall-clock epoch seconds for heartbeat lines.  This is the exporter's
// one legitimate wall-time read outside steady_clock intervals: heartbeat
// records must be correlatable with external logs, and nothing derived
// from it ever reaches engine execution.
std::int64_t UnixSeconds() {
  // mhb-lint: allow(no-time-call) -- heartbeat timestamps are operator telemetry only, never fed back into the simulation
  return static_cast<std::int64_t>(std::time(nullptr));
}

}  // namespace

LiveExporter::LiveExporter(LiveConfig config, const Registry* registry)
    : config_(std::move(config)),
      registry_(registry),
      start_(Clock::now()) {
  {
    core::MutexLock lock(mu_);
    last_progress_ = start_;
    last_heartbeat_ = start_;
  }
  if (config_.http_port >= 0) {
    try {
      server_ = std::make_unique<HttpServer>(
          config_.http_port,
          [this](const std::string& path) { return Handle(path); });
    } catch (const Error& e) {
      // Telemetry must never take the run down with it.
      MHB_LOG_WARN << "live telemetry: HTTP server disabled: " << e.what();
      server_ = nullptr;
    }
  }
  const bool heartbeat =
      config_.heartbeat_every_s > 0 && !config_.heartbeat_path.empty();
  if (heartbeat || config_.watchdog_stall_s > 0) {
    loop_thread_ = std::thread([this] { Loop(); });
  }
}

LiveExporter::~LiveExporter() { Stop(); }

void LiveExporter::Stop() {
  bool was_stopped = false;
  {
    core::MutexLock lock(mu_);
    was_stopped = stop_;
    stop_ = true;
    if (!was_stopped && config_.heartbeat_every_s > 0 &&
        !config_.heartbeat_path.empty()) {
      // Final heartbeat so even sub-interval runs leave a parseable record.
      WriteHeartbeatLocked(Clock::now());
    }
  }
  cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (server_ != nullptr) server_->Stop();
}

int LiveExporter::http_port() const {
  return server_ != nullptr ? server_->port() : -1;
}

void LiveExporter::NotifyProgress(int completed_round, double sim_time_s) {
  core::MutexLock lock(mu_);
  last_round_ = std::max(last_round_, completed_round);
  sim_time_s_ = sim_time_s;
  last_progress_ = Clock::now();
  if (stalled_) {
    stalled_ = false;
    MHB_LOG_INFO << "watchdog: round progress resumed at round "
                 << completed_round;
  }
}

void LiveExporter::NotifyCheckpoint(int next_round, const std::string& path) {
  core::MutexLock lock(mu_);
  ++checkpoints_written_;
  checkpoint_next_round_ = next_round;
  checkpoint_path_ = path;
}

bool LiveExporter::stalled() const {
  core::MutexLock lock(mu_);
  return stalled_;
}

std::int64_t LiveExporter::stall_count() const {
  core::MutexLock lock(mu_);
  return stalls_;
}

std::int64_t LiveExporter::heartbeat_count() const {
  core::MutexLock lock(mu_);
  return heartbeats_;
}

void LiveExporter::Loop() {
  std::chrono::milliseconds tick(200);
  if (config_.heartbeat_every_s > 0) {
    tick = std::min(tick, std::chrono::milliseconds(std::max(
                              1, static_cast<int>(
                                     config_.heartbeat_every_s * 500))));
  }
  if (config_.watchdog_stall_s > 0) {
    tick = std::min(tick, std::chrono::milliseconds(std::max(
                              1, static_cast<int>(
                                     config_.watchdog_stall_s * 250))));
  }
  tick = std::max(tick, std::chrono::milliseconds(2));

  core::MutexLock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock.native(), tick);
    if (stop_) break;
    const Clock::time_point now = Clock::now();
    if (config_.watchdog_stall_s > 0) CheckWatchdogLocked(now);
    if (config_.heartbeat_every_s > 0 && !config_.heartbeat_path.empty() &&
        std::chrono::duration<double>(now - last_heartbeat_).count() >=
            config_.heartbeat_every_s) {
      WriteHeartbeatLocked(now);
    }
  }
}

void LiveExporter::CheckWatchdogLocked(Clock::time_point now) {
  const double age =
      std::chrono::duration<double>(now - last_progress_).count();
  if (age <= config_.watchdog_stall_s || stalled_) return;
  stalled_ = true;
  ++stalls_;
  MHB_LOG_WARN << "watchdog: no round-barrier progress for " << age
               << " s (budget " << config_.watchdog_stall_s
               << " s), last completed round " << last_round_;
  if (config_.watchdog_abort) {
    // Terminal heartbeat before the abort: Stop() never runs on this path,
    // so without it the stream's last line predates the stall — flush one
    // carrying stalled=true so post-mortem tooling sees how the run ended.
    if (config_.heartbeat_every_s > 0 && !config_.heartbeat_path.empty()) {
      WriteHeartbeatLocked(now);
    }
    if (config_.on_watchdog_abort) {
      config_.on_watchdog_abort();
    } else {
      MHB_LOG_ERROR << "watchdog: aborting stalled run (--watchdog-abort)";
      std::_Exit(3);
    }
  }
}

void LiveExporter::WriteHeartbeatLocked(Clock::time_point now) {
  const Registry::LiveSnapshot snap = registry_ != nullptr
                                          ? registry_->SnapshotTotals()
                                          : Registry::LiveSnapshot{};
  auto counter = [&](const char* name) -> std::int64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  std::ostringstream line;
  line << "{\"seq\":" << heartbeats_ << ",\"utc\":\""
       << JsonEscape(IsoTimestampUtc()) << "\",\"unix_s\":" << UnixSeconds()
       << ",\"uptime_s\":"
       << FmtD(std::chrono::duration<double>(now - start_).count())
       << ",\"run_id\":\"" << JsonEscape(config_.run_id) << "\",\"run\":\""
       << JsonEscape(snap.last_run) << "\",\"round\":" << last_round_
       << ",\"rounds_completed\":" << snap.rounds_completed
       << ",\"rounds_total\":" << config_.rounds_total
       << ",\"sim_time_s\":" << FmtD(sim_time_s_)
       << ",\"clients_trained\":" << counter("clients_trained")
       << ",\"bytes_up\":" << counter("bytes_up");
  if (!snap.accuracy.empty()) {
    line << ",\"global_acc\":" << FmtD(snap.accuracy.back().second);
  }
  line << ",\"checkpoints_written\":" << checkpoints_written_
       << ",\"stalled\":" << (stalled_ ? "true" : "false")
       << ",\"watchdog_stalls\":" << stalls_ << "}\n";

  std::ofstream f(config_.heartbeat_path, std::ios::app);
  if (f.good()) {
    f << line.str();
    ++heartbeats_;
    last_heartbeat_ = now;
  } else {
    // Complain once per run at most would need extra state; WARN is cheap
    // at heartbeat cadence and the condition is an operator misconfig.
    MHB_LOG_WARN << "live telemetry: cannot append heartbeat to "
                 << config_.heartbeat_path;
  }
}

std::string LiveExporter::MetricsText() const {
  core::MutexLock lock(mu_);
  return MetricsTextLocked();
}

std::string LiveExporter::MetricsTextLocked() const {
  const Registry::LiveSnapshot snap = registry_ != nullptr
                                          ? registry_->SnapshotTotals()
                                          : Registry::LiveSnapshot{};
  std::ostringstream out;
  out << "# mhbench live telemetry (Prometheus text exposition 0.0.4)\n";
  out << "# TYPE mhb_up gauge\nmhb_up 1\n";
  out << "# TYPE mhb_rounds_completed counter\nmhb_rounds_completed "
      << snap.rounds_completed << "\n";
  out << "# TYPE mhb_last_round gauge\nmhb_last_round " << last_round_
      << "\n";
  out << "# TYPE mhb_sim_time_seconds gauge\nmhb_sim_time_seconds "
      << FmtD(sim_time_s_) << "\n";
  if (!snap.accuracy.empty()) {
    out << "# TYPE mhb_global_accuracy gauge\nmhb_global_accuracy "
        << FmtD(snap.accuracy.back().second) << "\n";
  }
  out << "# TYPE mhb_heartbeats counter\nmhb_heartbeats " << heartbeats_
      << "\n";
  out << "# TYPE mhb_watchdog_stalls counter\nmhb_watchdog_stalls "
      << stalls_ << "\n";
  out << "# TYPE mhb_stalled gauge\nmhb_stalled " << (stalled_ ? 1 : 0)
      << "\n";
  out << "# TYPE mhb_checkpoints_written counter\nmhb_checkpoints_written "
      << checkpoints_written_ << "\n";
  // Tier twins (obs/registry.h, DESIGN.md §5j) render as
  // the base metric with a Prometheus `tier` label; untiered entries render
  // exactly as before.  The snapshot map is name-sorted, so a base and its
  // tier variants are adjacent and the TYPE line dedup below emits one
  // header per metric family.
  std::string last_type;
  auto type_line = [&](const std::string& metric, const char* kind) {
    if (metric != last_type) {
      out << "# TYPE " << metric << " " << kind << "\n";
      last_type = metric;
    }
  };
  for (const auto& [name, value] : snap.counters) {
    const auto [base, tier] = SplitTierName(name);
    const std::string metric = "mhb_counter_" + MetricName(base);
    type_line(metric, "counter");
    out << metric;
    if (!tier.empty()) out << "{tier=\"" << JsonEscape(tier) << "\"}";
    out << " " << value << "\n";
  }
  last_type.clear();
  for (const auto& [name, h] : snap.hists) {
    const auto [base, raw_tier] = SplitTierName(name);
    const std::string tier = JsonEscape(raw_tier);
    const std::string metric = "mhb_hist_" + MetricName(base);
    type_line(metric, "summary");
    auto label = [&](const char* quantile) {
      std::string l = "{";
      if (!tier.empty()) l += "tier=\"" + tier + "\",";
      l += "quantile=\"" + std::string(quantile) + "\"}";
      return l;
    };
    const std::string suffix_labels =
        tier.empty() ? "" : "{tier=\"" + tier + "\"}";
    out << metric << label("0.5") << " " << FmtD(h.Quantile(0.50)) << "\n";
    out << metric << label("0.95") << " " << FmtD(h.Quantile(0.95))
        << "\n";
    out << metric << label("0.99") << " " << FmtD(h.Quantile(0.99))
        << "\n";
    out << metric << "_sum" << suffix_labels << " " << h.sum << "\n";
    out << metric << "_count" << suffix_labels << " " << h.count() << "\n";
  }
  return out.str();
}

std::string LiveExporter::StatusJson() const {
  core::MutexLock lock(mu_);
  return StatusJsonLocked();
}

std::string LiveExporter::StatusJsonLocked() const {
  const Registry::LiveSnapshot snap = registry_ != nullptr
                                          ? registry_->SnapshotTotals()
                                          : Registry::LiveSnapshot{};
  const Clock::time_point now = Clock::now();
  std::ostringstream out;
  out << "{\n";
  out << "  \"run_id\": \"" << JsonEscape(config_.run_id) << "\",\n";
  out << "  \"run\": \"" << JsonEscape(snap.last_run) << "\",\n";
  out << "  \"rounds_completed\": " << snap.rounds_completed << ",\n";
  out << "  \"last_round\": " << last_round_ << ",\n";
  out << "  \"rounds_total\": " << config_.rounds_total << ",\n";
  out << "  \"sim_time_s\": " << FmtD(sim_time_s_) << ",\n";
  out << "  \"uptime_s\": "
      << FmtD(std::chrono::duration<double>(now - start_).count()) << ",\n";
  out << "  \"progress_age_s\": "
      << FmtD(std::chrono::duration<double>(now - last_progress_).count())
      << ",\n";
  out << "  \"stalled\": " << (stalled_ ? "true" : "false") << ",\n";
  out << "  \"watchdog_stalls\": " << stalls_ << ",\n";
  out << "  \"heartbeats\": " << heartbeats_ << ",\n";
  // Accuracy-curve tail: the last few evaluated points, oldest first.
  out << "  \"accuracy\": [";
  const std::size_t tail =
      snap.accuracy.size() > 32 ? snap.accuracy.size() - 32 : 0;
  for (std::size_t i = tail; i < snap.accuracy.size(); ++i) {
    out << (i == tail ? "" : ", ") << "[" << snap.accuracy[i].first << ", "
        << FmtD(snap.accuracy[i].second) << "]";
  }
  out << "],\n";
  // Tier twins (obs/registry.h) are regrouped under "tiers";
  // the flat counters / histograms objects stay tier-free so their schema
  // is unchanged for existing pollers.
  out << "  \"counters\": {";
  {
    std::size_t i = 0;
    for (const auto& [name, value] : snap.counters) {
      if (!SplitTierName(name).second.empty()) continue;
      out << (i++ == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(name)
          << "\": " << value;
    }
  }
  out << "\n  },\n";
  out << "  \"histograms\": {";
  {
    std::size_t i = 0;
    for (const auto& [name, h] : snap.hists) {
      if (!SplitTierName(name).second.empty()) continue;
      out << (i++ == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(name)
          << "\": {\"count\":" << h.count() << ",\"sum\":" << h.sum
          << ",\"min\":" << h.min << ",\"max\":" << h.max
          << ",\"p50\":" << FmtD(h.Quantile(0.50))
          << ",\"p95\":" << FmtD(h.Quantile(0.95))
          << ",\"p99\":" << FmtD(h.Quantile(0.99)) << "}";
    }
  }
  out << "\n  },\n";
  out << "  \"tiers\": {";
  {
    std::size_t i = 0;
    for (const auto& [tier, m] : GroupByTier(snap.counters, snap.hists)) {
      out << (i++ == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(tier)
          << "\": {\"counters\": {";
      std::size_t j = 0;
      for (const auto& [name, value] : m.counters) {
        out << (j++ == 0 ? "" : ", ") << "\"" << JsonEscape(name)
            << "\": " << value;
      }
      out << "}, \"histograms\": {";
      j = 0;
      for (const auto& [name, h] : m.hists) {
        out << (j++ == 0 ? "" : ", ") << "\"" << JsonEscape(name)
            << "\": {\"count\":" << h.count()
            << ",\"p50\":" << FmtD(h.Quantile(0.50))
            << ",\"p95\":" << FmtD(h.Quantile(0.95))
            << ",\"p99\":" << FmtD(h.Quantile(0.99)) << "}";
      }
      out << "}}";
    }
  }
  out << "\n  },\n";
  out << "  \"gauges\": {";
  {
    std::size_t i = 0;
    for (const auto& [name, value] : snap.last_gauges) {
      out << (i++ == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(name)
          << "\": " << FmtD(value);
    }
  }
  out << "\n  },\n";
  out << "  \"checkpoint\": {\"written\": " << checkpoints_written_
      << ", \"next_round\": " << checkpoint_next_round_ << ", \"path\": \""
      << JsonEscape(checkpoint_path_) << "\"}\n";
  out << "}\n";
  return out.str();
}

HttpResponse LiveExporter::Handle(const std::string& path) const {
  HttpResponse resp;
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = MetricsText();
  } else if (path == "/status.json" || path == "/status") {
    resp.content_type = "application/json";
    resp.body = StatusJson();
  } else if (path == "/healthz") {
    if (stalled()) {
      resp.status = 503;
      resp.body = "stalled\n";
    } else {
      resp.body = "ok\n";
    }
  } else if (path == "/") {
    resp.body = "mhbench live telemetry: /metrics /status.json /healthz\n";
  } else {
    resp.status = 404;
    resp.body = "not found\n";
  }
  return resp;
}

}  // namespace mhbench::obs
