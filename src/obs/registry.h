// Counter/gauge/histogram registry with deterministic aggregation.
//
// Counters are 64-bit integers (bytes, FLOPs, drops, task counts).  Add()
// may be called from any thread: the delta lands in a pending buffer under
// the registry mutex and is folded into the published totals only at a
// serial round barrier (EndRound, Flush).  Integer addition is
// order-independent, so totals are identical for any thread count.
//
// Histograms are fixed log2-bucketed int64 distributions (latency µs,
// bytes, batch sizes).  Observe() lands in the pending buffer like Add;
// bucket counts, sums and min/max all merge with commutative operations,
// so bucket totals are thread-count independent too.  Quantiles
// (p50/p95/p99) are derived from the bucket counts at export time by linear
// interpolation inside the crossing bucket, clamped to the observed
// [min, max] — never tracked online.
//
// Gauges are doubles (simulated time, wall time, accuracy) set only from
// serial phases.
//
// EndRound snapshots the per-round counter deltas, histogram deltas and the
// round's gauges into a row; the manifest writer turns the rows into
// rounds.csv.
//
// Client-scoped telemetry has one source: AddClientRow (serial barrier
// only) counts each ClientRow into the client metrics and stages it;
// EndRound drains the staged rows into the installed client-row sink
// (obs/journal) — or discards them when no sink is installed — so
// client-row memory is bounded by one round's cohort, never
// O(fleet x rounds).
//
// Tier-keyed rollups (DESIGN.md §5j): each client metric also has a twin
// named `<base>@<tier>` (e.g. "clients_trained@mem16g").  Twins are
// ordinary counters/histograms; '@' never appears in an untiered name, and
// exporters recover the (base, tier) pair only through SplitTierName.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace mhbench::obs {

class Registry {
 public:
  using CounterId = std::size_t;
  using HistogramId = std::size_t;

  // Bucket 0 holds v <= 0; bucket b in [1, 63] holds v in [2^(b-1), 2^b).
  static constexpr int kHistogramBuckets = 64;

  // Bucket index for a value: 0 for v <= 0, otherwise bit_width(v).
  static int BucketIndex(std::int64_t v);
  // Inclusive lower / upper bound of a bucket (0/0 for bucket 0).
  static std::int64_t BucketLo(int bucket);
  static std::int64_t BucketHi(int bucket);

  // One histogram's merged state.  All fields combine with commutative,
  // associative operations (+, min, max), so merged totals are independent
  // of thread count and merge order.
  struct HistogramData {
    std::array<std::int64_t, kHistogramBuckets> buckets{};
    std::int64_t sum = 0;
    std::int64_t min = 0;  // valid only when count() > 0
    std::int64_t max = 0;  // valid only when count() > 0

    std::int64_t count() const;
    void Observe(std::int64_t v);
    void Merge(const HistogramData& other);
    // q in [0, 1]; linear interpolation within the crossing bucket, clamped
    // to [min, max].  0 when empty.
    double Quantile(double q) const;
    bool empty() const { return count() == 0; }
  };

  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registers (or looks up) a counter and returns its id.  Thread-safe,
  // but intended for serial setup phases; ids are stable for the
  // registry's lifetime.
  CounterId Counter(const std::string& name);

  // Adds `delta` to the counter.  Safe to call concurrently from any
  // thread; the value stays pending (invisible to Total, Totals and
  // SnapshotTotals) until the next Flush or EndRound publishes it.
  void Add(CounterId id, std::int64_t delta) MHB_EXCLUDES(mu_);

  // Serial convenience: register + add in one call.
  void AddNamed(const std::string& name, std::int64_t delta);

  // Registers (or looks up) a histogram; same threading contract as
  // Counter.  Histogram and counter names are independent namespaces.
  HistogramId Histogram(const std::string& name);

  // Records one observation.  Same threading contract as Add.
  void Observe(HistogramId id, std::int64_t value) MHB_EXCLUDES(mu_);

  // Serial convenience: register + observe in one call.
  void ObserveNamed(const std::string& name, std::int64_t value);

  // Sets a gauge for the current round.  Serial phases only.
  void SetGauge(const std::string& name, double value);

  // Publishes the pending counter/histogram contributions into the totals.
  // Serial barrier only.
  void Flush() MHB_EXCLUDES(mu_);

  // Flushes, then snapshots this round's counter/histogram deltas and
  // gauges into a row labelled (`run`, `round`).  Serial barrier only.
  void EndRound(const std::string& run, int round) MHB_EXCLUDES(mu_);

  // Total for a counter (0 if never registered).  Includes only flushed
  // contributions.
  std::int64_t Total(const std::string& name) const;
  std::map<std::string, std::int64_t> Totals() const;

  // Merged state of one histogram (empty data if never registered) / all
  // histograms.  Includes only flushed contributions.
  HistogramData HistogramTotals(const std::string& name) const;
  std::map<std::string, HistogramData> Histograms() const;

  // Checkpoint restore (fl/checkpoint): folds previously exported counter
  // deltas and histogram state into the whole-run totals.  Counter imports
  // also advance the per-round delta base, and histogram imports skip the
  // per-round accumulator, so imported history never appears in any
  // subsequent EndRound row — resumed runs report whole-campaign totals
  // but only their own rounds.  Serial phases only.
  void ImportTotals(const std::map<std::string, std::int64_t>& counters,
                    const std::map<std::string, HistogramData>& hists)
      MHB_EXCLUDES(mu_);

  struct RoundRow {
    std::string run;  // run label (the engine uses the algorithm name)
    int round = 0;
    std::map<std::string, std::int64_t> counters;  // deltas for this round
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> hists;  // this round's observations
  };
  // Lock-free read of guarded state: legal because it is called only from
  // serial phases (manifest export), when no EndRound can run.
  const std::vector<RoundRow>& rounds() const MHB_NO_THREAD_SAFETY_ANALYSIS {
    return rounds_;
  }

  // Installs a callback invoked after every EndRound with the row just
  // published (the stored row, read outside the registry lock on the
  // barrier thread, so the sink may call back into registry accessors).
  // The CLI uses it to stream rounds.csv incrementally.  Serial phases
  // only; pass an empty function to uninstall.
  void SetRoundSink(std::function<void(const RoundRow&)> sink)
      MHB_EXCLUDES(mu_);

  // Lock-bounded cross-thread view of the *published* state: flushed
  // counter/histogram totals plus the last completed round's label, gauges
  // and the accuracy-curve points gathered from the round rows.  Reads only
  // published state — never the pending buffer — so it is safe to call
  // from a background exporter thread while client work is running; it
  // simply cannot observe anything that has not crossed a round barrier
  // yet.  Strictly read-only: the live exporter's determinism contract
  // (DESIGN.md §5h) depends on this being the only registry surface it
  // touches.
  struct LiveSnapshot {
    std::map<std::string, std::int64_t> counters;    // flushed totals
    std::map<std::string, HistogramData> hists;      // flushed, non-empty
    int last_round = -1;                   // -1 before the first EndRound
    std::string last_run;                  // last round row's run label
    std::map<std::string, double> last_gauges;  // last round row's gauges
    std::size_t rounds_completed = 0;      // number of EndRound rows
    double sim_time_s = 0.0;               // last row's sim_time_s gauge
    // (round, global_acc) for every row that carried an evaluation.
    std::vector<std::pair<int, double>> accuracy;
  };
  LiveSnapshot SnapshotTotals() const MHB_EXCLUDES(mu_);

  // What the round-CSV publisher (obs/manifest.cc) last left in one file:
  // the column union over the rows folded so far and the file's size, so
  // the next publish can append only the new rows.
  struct CsvPublishState {
    std::string path;  // the file described; "" until the first publish
    std::size_t rows = 0;      // round rows folded into the union
    std::uintmax_t bytes = 0;  // file size the last publish left
    std::set<std::string> gauges, counters, hists;  // column union
  };

  // One sampled client in one round: the cost model's simulated clock
  // joined with the measured wall time and the round's drop decision.
  struct ClientRow {
    std::string run;
    int round = 0;
    int client = 0;
    // DESIGN.md §5j taxonomy; "" is staged as "untiered".
    std::string device_tier;
    std::string drop_reason;  // "" (trained), "offline", "straggler"
    double sim_compute_s = 0.0;
    double sim_comm_s = 0.0;
    double memory_mb = 0.0;
    double wall_ms = 0.0;  // measured local-training wall time; 0 if dropped
    std::int64_t bytes_up = 0;
    std::int64_t bytes_down = 0;
    std::int64_t train_mflops = 0;
  };

  // Registers the client metrics and their `@<tier>` twins for every tier
  // in `device_tiers` (duplicates ignored, "" = "untiered").  The engine
  // declares its whole assignment table at Run entry, so a tier whose
  // clients are never sampled still exports zero-valued twins.  Serial
  // phases only.
  void DeclareClientTiers(const std::vector<std::string>& device_tiers)
      MHB_EXCLUDES(mu_);

  // Counts one client's row, into each base name and its tier twin, and
  // stages the row for the current round.  Every row counts in
  // clients_selected; an "offline" row in clients_offline, any other drop
  // in clients_dropped; a trained row (empty drop_reason) in
  // clients_trained, bytes_up, bytes_down, train_mflops and the
  // client_wall_us, client_bytes_up and client_train_mflops histograms.
  // Serial barrier only; EndRound publishes the counts.
  void AddClientRow(ClientRow row) MHB_EXCLUDES(mu_);

  // Installs the per-round client-row drain, invoked by EndRound with the
  // round's staged rows (outside the registry lock, on the barrier thread).
  // Rows staged while no sink is installed are discarded at the barrier —
  // staging memory is bounded by one round's cohort either way.  The CLI
  // wires this to a ClientJournalWriter.  Serial phases only; pass an empty
  // function to uninstall.
  void SetClientRowSink(std::function<void(std::vector<ClientRow>&&)> sink)
      MHB_EXCLUDES(mu_);

 private:
  friend void WriteRoundsCsv(const std::string& run_dir, Registry& registry);
  friend void WriteTiersCsv(const std::string& run_dir, Registry& registry);

  // One tier's (or the base's) client metric ids.
  struct ClientIds {
    CounterId selected{}, offline{}, dropped{}, trained{}, bytes_up{},
        bytes_down{}, train_mflops{};
    HistogramId wall_us_hist{}, bytes_up_hist{}, train_mflops_hist{};
  };

  CounterId CounterLocked(const std::string& name) MHB_REQUIRES(mu_);
  HistogramId HistogramLocked(const std::string& name) MHB_REQUIRES(mu_);
  // Ids for `tier` ("" = the base names), registered on first use.
  const ClientIds& ClientIdsLocked(const std::string& tier)
      MHB_REQUIRES(mu_);
  void CountClientRowLocked(const ClientIds& ids, const ClientRow& row)
      MHB_REQUIRES(mu_);
  void FlushLocked() MHB_REQUIRES(mu_);

  // Guards everything below.
  mutable core::Mutex mu_;
  std::vector<std::string> names_ MHB_GUARDED_BY(mu_);
  std::unordered_map<std::string, CounterId> ids_ MHB_GUARDED_BY(mu_);
  // Flushed totals, by id.
  std::vector<std::int64_t> totals_ MHB_GUARDED_BY(mu_);
  // Added since the last flush, by id.
  std::vector<std::int64_t> pending_ MHB_GUARDED_BY(mu_);
  // Totals at the last EndRound.
  std::vector<std::int64_t> round_base_ MHB_GUARDED_BY(mu_);
  std::vector<std::string> hist_names_ MHB_GUARDED_BY(mu_);
  std::unordered_map<std::string, HistogramId> hist_ids_ MHB_GUARDED_BY(mu_);
  // Flushed, by histogram id.
  std::vector<HistogramData> hist_totals_ MHB_GUARDED_BY(mu_);
  // Observed since the last flush.
  std::vector<HistogramData> hist_pending_ MHB_GUARDED_BY(mu_);
  // Flushed since the last EndRound.
  std::vector<HistogramData> hist_round_ MHB_GUARDED_BY(mu_);
  // Client metric ids by tier name ("" = base); map nodes keep references
  // stable while further tiers are registered.
  std::map<std::string, ClientIds> client_ids_ MHB_GUARDED_BY(mu_);
  // Current round's gauges.
  std::map<std::string, double> gauges_ MHB_GUARDED_BY(mu_);
  std::vector<RoundRow> rounds_ MHB_GUARDED_BY(mu_);
  // (round, global_acc) of every row that carried one, appended by EndRound
  // so SnapshotTotals never rescans rounds_.
  std::vector<std::pair<int, double>> accuracy_ MHB_GUARDED_BY(mu_);
  // Staged rows for the round in flight; drained (or discarded) by every
  // EndRound, so this never grows past one round's cohort.
  std::vector<ClientRow> client_rows_ MHB_GUARDED_BY(mu_);
  std::function<void(const RoundRow&)> round_sink_ MHB_GUARDED_BY(mu_);
  std::function<void(std::vector<ClientRow>&&)> client_row_sink_
      MHB_GUARDED_BY(mu_);

  // Serializes the round-CSV publishers and guards their state.  Separate
  // from mu_, so their file I/O never blocks Add/Observe or a live
  // snapshot.
  core::Mutex csv_mu_;
  CsvPublishState rounds_csv_ MHB_GUARDED_BY(csv_mu_);
  CsvPublishState tiers_csv_ MHB_GUARDED_BY(csv_mu_);
};

// Splits a registry name into its (base, tier) pair:
// "bytes_up@cpu" -> {"bytes_up", "cpu"}; an untiered name gets tier "".
std::pair<std::string, std::string> SplitTierName(const std::string& name);

// One tier's twins, keyed by base name.
struct TierMetrics {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, Registry::HistogramData> hists;
};

// Regroups the tier twins of a counter map and a histogram map as
// tier -> base -> value (untiered names have no tier and are left out).
// Filters nothing else: each exporter applies its own empty-histogram rule.
std::map<std::string, TierMetrics> GroupByTier(
    const std::map<std::string, std::int64_t>& counters,
    const std::map<std::string, Registry::HistogramData>& hists);

}  // namespace mhbench::obs
