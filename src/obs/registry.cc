#include "obs/registry.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

namespace mhbench::obs {

namespace {

constexpr char kTierSeparator = '@';
constexpr const char* kUntiered = "untiered";

// std::bit_width without requiring <bit> (the TSan config builds with
// older language-mode fallbacks elsewhere): position of the highest set
// bit, for v > 0.
int BitWidth(std::uint64_t v) {
  int w = 0;
  while (v != 0) {
    v >>= 1;
    ++w;
  }
  return w;
}

}  // namespace

int Registry::BucketIndex(std::int64_t v) {
  if (v <= 0) return 0;
  return BitWidth(static_cast<std::uint64_t>(v));  // 1..63
}

std::int64_t Registry::BucketLo(int bucket) {
  if (bucket <= 0) return 0;
  return std::int64_t{1} << (bucket - 1);
}

std::int64_t Registry::BucketHi(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return (std::int64_t{1} << bucket) - 1;
}

std::int64_t Registry::HistogramData::count() const {
  std::int64_t n = 0;
  for (const std::int64_t b : buckets) n += b;
  return n;
}

void Registry::HistogramData::Observe(std::int64_t v) {
  if (count() == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  buckets[static_cast<std::size_t>(BucketIndex(v))] += 1;
  sum += v;
}

void Registry::HistogramData::Merge(const HistogramData& other) {
  if (other.count() == 0) return;
  if (count() == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  sum += other.sum;
}

double Registry::HistogramData::Quantile(double q) const {
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  std::int64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::int64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Interpolate within the bucket's [lo, hi] span, then clamp to the
      // observed range so degenerate histograms (single value) are exact.
      const double lo = static_cast<double>(BucketLo(b));
      const double hi = static_cast<double>(BucketHi(b));
      const double frac =
          in_bucket == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      double v = lo + frac * (hi - lo);
      v = std::max(v, static_cast<double>(min));
      v = std::min(v, static_cast<double>(max));
      return v;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

Registry::CounterId Registry::Counter(const std::string& name) {
  core::MutexLock lock(mu_);
  return CounterLocked(name);
}

Registry::CounterId Registry::CounterLocked(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const CounterId id = names_.size();
  names_.push_back(name);
  ids_.emplace(name, id);
  totals_.push_back(0);
  round_base_.push_back(0);
  return id;
}

Registry::HistogramId Registry::Histogram(const std::string& name) {
  core::MutexLock lock(mu_);
  return HistogramLocked(name);
}

Registry::HistogramId Registry::HistogramLocked(const std::string& name) {
  auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) return it->second;
  const HistogramId id = hist_names_.size();
  hist_names_.push_back(name);
  hist_ids_.emplace(name, id);
  hist_totals_.emplace_back();
  hist_round_.emplace_back();
  return id;
}

void Registry::Add(CounterId id, std::int64_t delta) {
  core::MutexLock lock(mu_);
  totals_[id] += delta;
}

void Registry::AddNamed(const std::string& name, std::int64_t delta) {
  Add(Counter(name), delta);
}

void Registry::Observe(HistogramId id, std::int64_t value) {
  core::MutexLock lock(mu_);
  ObserveLocked(id, value);
}

void Registry::ObserveLocked(HistogramId id, std::int64_t value) {
  hist_totals_[id].Observe(value);
  hist_round_[id].Observe(value);
}

void Registry::ObserveNamed(const std::string& name, std::int64_t value) {
  Observe(Histogram(name), value);
}

void Registry::SetGauge(const std::string& name, double value) {
  core::MutexLock lock(mu_);
  gauges_[name] = value;
}

void Registry::EndRound(const std::string& run, int round) {
  std::function<void(const RoundRow&)> sink;
  std::function<void(std::vector<ClientRow>&&)> row_sink;
  std::vector<ClientRow> drained;
  {
    core::MutexLock lock(mu_);
    // Drain the staged client rows unconditionally: with no sink installed
    // they are simply discarded, so staging memory stays bounded by one
    // round's cohort either way.
    drained.swap(client_rows_);
    row_sink = client_row_sink_;
    RoundRow row;
    row.run = run;
    row.round = round;
    for (std::size_t id = 0; id < totals_.size(); ++id) {
      const std::int64_t delta = totals_[id] - round_base_[id];
      if (delta != 0) row.counters[names_[id]] = delta;
      round_base_[id] = totals_[id];
    }
    // Histogram deltas can't be derived by subtraction (min/max aren't
    // invertible), so a per-round accumulator is kept alongside the totals
    // and reset here.
    for (std::size_t id = 0; id < hist_round_.size(); ++id) {
      if (!hist_round_[id].empty()) {
        row.hists[hist_names_[id]] = hist_round_[id];
      }
      hist_round_[id] = HistogramData{};
    }
    row.gauges = std::move(gauges_);
    gauges_.clear();
    auto acc = row.gauges.find("global_acc");
    if (acc != row.gauges.end()) accuracy_.emplace_back(round, acc->second);
    sink = round_sink_;
    rounds_.push_back(std::move(row));
  }
  // Outside the lock: only this serial barrier appends to rounds_, so the
  // stored row stays put while the sink reads it.
  if (sink) sink(rounds().back());
  if (row_sink && !drained.empty()) row_sink(std::move(drained));
}

void Registry::SetRoundSink(std::function<void(const RoundRow&)> sink) {
  core::MutexLock lock(mu_);
  round_sink_ = std::move(sink);
}

void Registry::SetClientRowSink(
    std::function<void(std::vector<ClientRow>&&)> sink) {
  core::MutexLock lock(mu_);
  client_row_sink_ = std::move(sink);
}

Registry::LiveSnapshot Registry::SnapshotTotals() const {
  LiveSnapshot snap;
  core::MutexLock lock(mu_);
  for (std::size_t id = 0; id < names_.size(); ++id) {
    snap.counters[names_[id]] = totals_[id];
  }
  for (std::size_t id = 0; id < hist_names_.size(); ++id) {
    snap.hists[hist_names_[id]] = hist_totals_[id];
  }
  snap.accuracy = accuracy_;
  if (!rounds_.empty()) {
    const RoundRow& last = rounds_.back();
    snap.last_round = last.round;
    snap.rounds_completed = static_cast<std::size_t>(last.round) + 1;
    snap.last_run = last.run;
    snap.last_gauges = last.gauges;
    auto it = last.gauges.find("sim_time_s");
    if (it != last.gauges.end()) snap.sim_time_s = it->second;
  }
  return snap;
}

std::int64_t Registry::Total(const std::string& name) const {
  core::MutexLock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? 0 : totals_[it->second];
}

Registry::HistogramData Registry::HistogramTotals(
    const std::string& name) const {
  core::MutexLock lock(mu_);
  auto it = hist_ids_.find(name);
  return it == hist_ids_.end() ? HistogramData{} : hist_totals_[it->second];
}

void Registry::ImportTotals(
    const std::map<std::string, std::int64_t>& counters,
    const std::map<std::string, HistogramData>& hists) {
  core::MutexLock lock(mu_);
  for (const auto& [name, delta] : counters) {
    const CounterId id = CounterLocked(name);
    totals_[id] += delta;
    round_base_[id] += delta;
  }
  for (const auto& [name, data] : hists) {
    hist_totals_[HistogramLocked(name)].Merge(data);
  }
}

const Registry::ClientIds& Registry::ClientIdsLocked(const std::string& tier) {
  auto it = client_ids_.find(tier);
  if (it != client_ids_.end()) return it->second;
  const std::string suffix = tier.empty() ? "" : kTierSeparator + tier;
  ClientIds ids;
  ids.selected = CounterLocked("clients_selected" + suffix);
  ids.offline = CounterLocked("clients_offline" + suffix);
  ids.dropped = CounterLocked("clients_dropped" + suffix);
  ids.trained = CounterLocked("clients_trained" + suffix);
  ids.bytes_up = CounterLocked("bytes_up" + suffix);
  ids.bytes_down = CounterLocked("bytes_down" + suffix);
  ids.train_mflops = CounterLocked("train_mflops" + suffix);
  ids.wall_us_hist = HistogramLocked("client_wall_us" + suffix);
  ids.bytes_up_hist = HistogramLocked("client_bytes_up" + suffix);
  ids.train_mflops_hist = HistogramLocked("client_train_mflops" + suffix);
  return client_ids_.emplace(tier, ids).first->second;
}

void Registry::DeclareClientTiers(
    const std::vector<std::string>& device_tiers) {
  core::MutexLock lock(mu_);
  ClientIdsLocked("");
  for (const std::string& tier : device_tiers) {
    ClientIdsLocked(tier.empty() ? kUntiered : tier);
  }
}

void Registry::CountClientRowLocked(const ClientIds& ids,
                                    const ClientRow& row) {
  totals_[ids.selected] += 1;
  if (row.drop_reason == "offline") {
    totals_[ids.offline] += 1;
    return;
  }
  if (!row.drop_reason.empty()) {
    totals_[ids.dropped] += 1;
    return;
  }
  totals_[ids.trained] += 1;
  totals_[ids.bytes_up] += row.bytes_up;
  totals_[ids.bytes_down] += row.bytes_down;
  totals_[ids.train_mflops] += row.train_mflops;
  ObserveLocked(ids.wall_us_hist, static_cast<std::int64_t>(row.wall_ms * 1e3));
  ObserveLocked(ids.bytes_up_hist, row.bytes_up);
  ObserveLocked(ids.train_mflops_hist, row.train_mflops);
}

void Registry::AddClientRow(ClientRow row) {
  if (row.device_tier.empty()) row.device_tier = kUntiered;
  core::MutexLock lock(mu_);
  CountClientRowLocked(ClientIdsLocked(""), row);
  CountClientRowLocked(ClientIdsLocked(row.device_tier), row);
  client_rows_.push_back(std::move(row));
}

std::pair<std::string, std::string> SplitTierName(const std::string& name) {
  const std::size_t at = name.find(kTierSeparator);
  if (at == std::string::npos) return {name, ""};
  return {name.substr(0, at), name.substr(at + 1)};
}

std::map<std::string, TierMetrics> GroupByTier(
    const std::map<std::string, std::int64_t>& counters,
    const std::map<std::string, Registry::HistogramData>& hists) {
  std::map<std::string, TierMetrics> tiers;
  for (const auto& [name, value] : counters) {
    auto [base, tier] = SplitTierName(name);
    if (!tier.empty()) tiers[tier].counters.emplace(std::move(base), value);
  }
  for (const auto& [name, h] : hists) {
    auto [base, tier] = SplitTierName(name);
    if (!tier.empty() && !h.empty()) {
      tiers[tier].hists.emplace(std::move(base), h);
    }
  }
  return tiers;
}

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string HistogramSummaryJson(const Registry::HistogramData& h) {
  std::ostringstream out;
  out << "{\"count\":" << h.count() << ",\"sum\":" << h.sum
      << ",\"min\":" << h.min << ",\"max\":" << h.max
      << ",\"p50\":" << FormatDouble(h.Quantile(0.50))
      << ",\"p95\":" << FormatDouble(h.Quantile(0.95))
      << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
  return out.str();
}

}  // namespace mhbench::obs
