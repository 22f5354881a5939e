#include "obs/live.h"

#include <sstream>

#include "core/bytes.h"
#include "obs/trace.h"

namespace mhbench::obs {

namespace {

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

}  // namespace

std::string MetricsText(const Registry::LiveSnapshot& snap) {
  std::ostringstream out;
  out << "# mhbench live telemetry (Prometheus text exposition 0.0.4)\n";
  out << "# TYPE mhb_up gauge\nmhb_up 1\n";
  out << "# TYPE mhb_rounds_completed counter\nmhb_rounds_completed "
      << snap.rounds_completed << "\n";
  out << "# TYPE mhb_last_round gauge\nmhb_last_round " << snap.last_round
      << "\n";
  out << "# TYPE mhb_sim_time_seconds gauge\nmhb_sim_time_seconds "
      << FormatDouble(snap.sim_time_s) << "\n";
  if (!snap.accuracy.empty()) {
    out << "# TYPE mhb_global_accuracy gauge\nmhb_global_accuracy "
        << FormatDouble(snap.accuracy.back().second) << "\n";
  }
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
    if (h.empty()) continue;
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
    out << metric << label("0.5") << " " << FormatDouble(h.Quantile(0.50))
        << "\n";
    out << metric << label("0.95") << " " << FormatDouble(h.Quantile(0.95))
        << "\n";
    out << metric << label("0.99") << " " << FormatDouble(h.Quantile(0.99))
        << "\n";
    out << metric << "_sum" << suffix_labels << " " << h.sum << "\n";
    out << metric << "_count" << suffix_labels << " " << h.count() << "\n";
  }
  return out.str();
}

std::string StatusJson(const Registry::LiveSnapshot& snap,
                       const std::string& run_id, int rounds_total) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"run_id\": \"" << JsonEscape(run_id) << "\",\n";
  out << "  \"run\": \"" << JsonEscape(snap.last_run) << "\",\n";
  out << "  \"rounds_completed\": " << snap.rounds_completed << ",\n";
  out << "  \"last_round\": " << snap.last_round << ",\n";
  out << "  \"rounds_total\": " << rounds_total << ",\n";
  out << "  \"sim_time_s\": " << FormatDouble(snap.sim_time_s) << ",\n";
  // Accuracy-curve tail: the last few evaluated points, oldest first.
  out << "  \"accuracy\": [";
  const std::size_t tail =
      snap.accuracy.size() > 32 ? snap.accuracy.size() - 32 : 0;
  for (std::size_t i = tail; i < snap.accuracy.size(); ++i) {
    out << (i == tail ? "" : ", ") << "[" << snap.accuracy[i].first << ", "
        << FormatDouble(snap.accuracy[i].second) << "]";
  }
  out << "],\n";
  // Tier twins (obs/registry.h) are regrouped under "tiers";
  // the flat counters / histograms objects stay tier-free.
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
      if (h.empty() || !SplitTierName(name).second.empty()) continue;
      out << (i++ == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(name)
          << "\": " << HistogramSummaryJson(h);
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
            << ",\"p50\":" << FormatDouble(h.Quantile(0.50))
            << ",\"p95\":" << FormatDouble(h.Quantile(0.95))
            << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
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
          << "\": " << FormatDouble(value);
    }
  }
  out << "\n  }\n";
  out << "}\n";
  return out.str();
}

void WriteLiveFiles(const std::string& run_dir, const Registry& registry,
                    const std::string& run_id, int rounds_total) {
  const Registry::LiveSnapshot snap = registry.SnapshotTotals();
  WriteFileAtomic(run_dir + "/metrics.prom", MetricsText(snap));
  WriteFileAtomic(run_dir + "/status.json",
                  StatusJson(snap, run_id, rounds_total));
}

}  // namespace mhbench::obs
