#include "obs/manifest.h"

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>

#include "core/bytes.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/mutex.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::obs {

std::string GitDescribe(const std::string& repo_dir) {
#if defined(_WIN32)
  (void)repo_dir;
  return "unknown";
#else
  const std::string cmd =
      "git -C '" + repo_dir + "' describe --always --dirty 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[256];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
#endif
}

std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string SanitizeRunId(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '_';
  }
  // ".." (or a bare ".") must not escape the manifest dir.
  if (out.empty() || out.find_first_not_of('.') == std::string::npos) {
    out = "run";
  }
  return out;
}

namespace {

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << "\"" << JsonEscape(s) << "\"";
}

// One CSV line's source: its leading cells and the metrics it spreads over
// the file's column union.
struct CsvLine {
  std::vector<std::string> lead;
  const std::map<std::string, double>& gauges;
  const std::map<std::string, std::int64_t>& counters;
  const std::map<std::string, Registry::HistogramData>& hists;
};

using LineFn = std::function<void(const CsvLine&)>;
// Calls `emit` for every line one round row contributes to a file.
using RowLines = void (*)(const Registry::RoundRow& row, const LineFn& emit);

// rounds.csv: one line per round row.
void RoundLines(const Registry::RoundRow& row, const LineFn& emit) {
  emit({{row.run, std::to_string(row.round)},
        row.gauges,
        row.counters,
        row.hists});
}

// tiers.csv: one line per tier with twins in the row; tiers carry no
// gauges.
void TierLines(const Registry::RoundRow& row, const LineFn& emit) {
  static const std::map<std::string, double> kNoGauges;
  for (const auto& [tier, m] : GroupByTier(row.counters, row.hists)) {
    emit({{row.run, std::to_string(row.round), tier},
          kNoGauges,
          m.counters,
          m.hists});
  }
}

// `lead`, then the union's gauge, counter and histogram columns (each
// histogram as `<h>_count`, `_p50`, `_p95`, `_p99`).
std::string RenderHeader(std::vector<std::string> lead,
                         const Registry::CsvPublishState& st) {
  lead.insert(lead.end(), st.gauges.begin(), st.gauges.end());
  lead.insert(lead.end(), st.counters.begin(), st.counters.end());
  for (const auto& h : st.hists) {
    for (const char* suffix : {"_count", "_p50", "_p95", "_p99"}) {
      lead.push_back(h + suffix);
    }
  }
  return CsvRow(lead);
}

// One line over the union: a gauge the line lacks renders blank, a counter
// "0", a histogram a zero count and blank quantiles.
std::string RenderLine(const CsvLine& line,
                       const Registry::CsvPublishState& st) {
  std::vector<std::string> cells = line.lead;
  for (const auto& g : st.gauges) {
    auto it = line.gauges.find(g);
    cells.push_back(it == line.gauges.end() ? "" : FormatDouble(it->second));
  }
  for (const auto& c : st.counters) {
    auto it = line.counters.find(c);
    cells.push_back(
        it == line.counters.end() ? "0" : std::to_string(it->second));
  }
  for (const auto& h : st.hists) {
    auto it = line.hists.find(h);
    if (it == line.hists.end()) {
      cells.insert(cells.end(), {"0", "", "", ""});
      continue;
    }
    cells.push_back(std::to_string(it->second.count()));
    for (const double q : {0.50, 0.95, 0.99}) {
      cells.push_back(FormatDouble(it->second.Quantile(q)));
    }
  }
  return CsvRow(cells);
}

// The one publish path behind WriteRoundsCsv and WriteTiersCsv; the rule is
// documented in manifest.h.  `lead` names the leading cells `lines` fills.
void PublishCsv(Registry::CsvPublishState& st, const std::string& path,
                const std::vector<std::string>& lead,
                const std::vector<Registry::RoundRow>& rows, RowLines lines) {
  if (st.path != path) {  // another file: fold every row, then rewrite
    st = Registry::CsvPublishState();
    st.path = path;
  }
  const std::size_t first = st.rows;
  bool grew = false;
  std::size_t new_lines = 0;
  for (std::size_t i = first; i < rows.size(); ++i) {
    lines(rows[i], [&](const CsvLine& line) {
      for (const auto& [k, v] : line.gauges) {
        grew |= st.gauges.insert(k).second;
      }
      for (const auto& [k, v] : line.counters) {
        grew |= st.counters.insert(k).second;
      }
      for (const auto& [k, v] : line.hists) {
        grew |= st.hists.insert(k).second;
      }
      ++new_lines;
    });
  }
  st.rows = rows.size();
  if (st.bytes == 0 && new_lines == 0) return;  // no line to publish yet

  std::error_code ec;
  const std::uintmax_t on_disk = std::filesystem::file_size(path, ec);
  const bool append = !grew && st.bytes != 0 && !ec && on_disk == st.bytes;
  std::string text = append ? "" : RenderHeader(lead, st);
  for (std::size_t i = append ? first : 0; i < rows.size(); ++i) {
    lines(rows[i], [&](const CsvLine& line) { text += RenderLine(line, st); });
  }
  if (append && text.empty()) return;
  st.path.clear();  // if the write throws, the next call starts over
  if (append) {
    AppendFile(path, text);
    st.bytes += text.size();
  } else {
    WriteFileAtomic(path, text);
    st.bytes = text.size();
  }
  st.path = path;
}

}  // namespace

void WriteRoundsCsv(const std::string& run_dir, Registry& registry) {
  core::MutexLock lock(registry.csv_mu_);
  PublishCsv(registry.rounds_csv_,
             (std::filesystem::path(run_dir) / "rounds.csv").string(),
             {"run", "round"}, registry.rounds(), RoundLines);
}

void WriteTiersCsv(const std::string& run_dir, Registry& registry) {
  core::MutexLock lock(registry.csv_mu_);
  PublishCsv(registry.tiers_csv_,
             (std::filesystem::path(run_dir) / "tiers.csv").string(),
             {"run", "round", "tier"}, registry.rounds(), TierLines);
}

std::string WriteRunManifest(const std::string& dir, const RunManifest& m,
                             Registry* registry,
                             const Profiler* profiler) {
  namespace fs = std::filesystem;
  const fs::path run_dir = fs::path(dir) / SanitizeRunId(m.run_id);
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    throw Error("cannot create manifest dir " + run_dir.string() + ": " +
                ec.message());
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"run_id\": ";
  AppendJsonString(json, SanitizeRunId(m.run_id));
  json << ",\n  \"tool\": ";
  AppendJsonString(json, m.tool);
  json << ",\n  \"git_describe\": ";
  AppendJsonString(json, m.git_describe);
  json << ",\n  \"created_utc\": ";
  AppendJsonString(json, m.created_utc);
  json << ",\n  \"seed\": " << m.seed;
  json << ",\n  \"threads\": " << m.threads;
  json << ",\n  \"config\": {";
  for (std::size_t i = 0; i < m.config.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n") << "    ";
    AppendJsonString(json, m.config[i].first);
    json << ": ";
    AppendJsonString(json, m.config[i].second);
  }
  json << "\n  },\n  \"metrics\": {";
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n") << "    ";
    AppendJsonString(json, m.metrics[i].first);
    json << ": " << m.metrics[i].second;
  }
  const Registry::LiveSnapshot snap = registry != nullptr
                                          ? registry->SnapshotTotals()
                                          : Registry::LiveSnapshot{};
  json << "\n  },\n  \"counters\": {";
  {
    std::size_t i = 0;
    for (const auto& [name, value] : snap.counters) {
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, name);
      json << ": " << value;
    }
  }
  json << "\n  },\n  \"histograms\": {";
  {
    std::size_t i = 0;
    for (const auto& [name, h] : snap.hists) {
      if (h.empty()) continue;
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, name);
      json << ": " << HistogramSummaryJson(h);
    }
  }
  // Per-tier rollups: the tier twins' totals regrouped by tier, so report
  // tooling never has to re-split names.  The flat counters / histograms
  // objects above still carry the raw twin entries — that keeps
  // mhb_diff's exact-counter gate covering the tier dimension for free.
  json << "\n  },\n  \"tiers\": {";
  {
    std::size_t i = 0;
    for (const auto& [tier, m] : GroupByTier(snap.counters, snap.hists)) {
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, tier);
      json << ": {\"counters\": {";
      std::size_t j = 0;
      for (const auto& [name, value] : m.counters) {
        json << (j++ == 0 ? "" : ", ");
        AppendJsonString(json, name);
        json << ": " << value;
      }
      json << "}, \"histograms\": {";
      j = 0;
      for (const auto& [name, h] : m.hists) {
        json << (j++ == 0 ? "" : ", ");
        AppendJsonString(json, name);
        json << ": {\"count\":" << h.count() << ",\"sum\":" << h.sum
             << ",\"p50\":" << FormatDouble(h.Quantile(0.50))
             << ",\"p95\":" << FormatDouble(h.Quantile(0.95))
             << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
      }
      json << "}}";
    }
  }
  json << "\n  },\n  \"rounds\": " << (registry ? registry->rounds().size() : 0)
       << "\n}\n";

  WriteFileAtomic((run_dir / "manifest.json").string(), json.str());

  if (registry != nullptr) {
    WriteRoundsCsv(run_dir.string(), *registry);
    WriteTiersCsv(run_dir.string(), *registry);
  }

  if (profiler != nullptr) {
    WriteFileAtomic((run_dir / "profile.json").string(), profiler->ToJson());
  }

  return run_dir.string();
}

}  // namespace mhbench::obs
