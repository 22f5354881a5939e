// Run manifests: a reproducibility record for one benchmark run.
//
// WriteRunManifest creates `<dir>/<run_id>/` containing
//   manifest.json — tool, git describe, seed, thread count, flattened
//                   config, counter totals, histogram summaries
//                   (count/sum/min/max/p50/p95/p99), per-tier rollups
//                   (the `<base>@<tier>` entries regrouped by tier), and
//                   summary metrics
//   rounds.csv    — one row per (run, round) from the registry's round
//                   snapshots (counter deltas + gauges + per-round
//                   histogram quantiles)
//   tiers.csv     — one row per (run, round, device tier): the tier-keyed
//                   counter deltas and histogram quantiles split out of
//                   the round rows (DESIGN.md §5j)
//   profile.json  — per-op attribution table when a profiler is supplied
//
// manifest.json's totals come from Registry::SnapshotTotals(), the view
// the live files, the checkpoint's obs section and the det-audit ledger
// read too, so every document of a finished run carries the same numbers;
// its flat histogram summaries and numbers share status.json's renderers
// (HistogramSummaryJson, FormatDouble in obs/registry.h).
//
// The per-client per-round timeline is no longer retained in memory or
// written here: the registry drains it into the bounded client event
// journal (obs/journal.h, clients.mhbj); `tools/mhb_journal.py csv`
// reconstructs the legacy clients.csv from the journal.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mhbench::obs {

class Registry;
class Profiler;

struct RunManifest {
  std::string run_id;          // directory name; sanitized by the writer
  std::string tool;            // e.g. "mhbench run"
  std::string git_describe;    // from GitDescribe(), or "unknown"
  std::string created_utc;     // ISO-8601; from IsoTimestampUtc()
  std::uint64_t seed = 0;
  int threads = 1;
  // Flattened configuration, insertion-ordered (task, constraint, rounds,
  // clients, ...).
  std::vector<std::pair<std::string, std::string>> config;
  // Headline results, insertion-ordered (final accuracy, sim time, ...).
  std::vector<std::pair<std::string, double>> metrics;
};

// `git describe --always --dirty` in `repo_dir`; "unknown" when git or the
// repository is unavailable.
std::string GitDescribe(const std::string& repo_dir = ".");

// Current UTC time as "YYYY-MM-DDTHH:MM:SSZ".
std::string IsoTimestampUtc();

// Replaces path-hostile characters in `id` so it is safe as a directory
// name ("/", spaces, ".." and friends become "_").
std::string SanitizeRunId(const std::string& id);

// Writes manifest.json (+ rounds.csv / tiers.csv when `registry` is
// non-null and collected rows, + profile.json when `profiler` is non-null)
// under `<dir>/<sanitized run_id>/`; creates directories as needed.
// Returns the run directory.  Throws mhbench::Error on I/O errors.
// manifest.json lands via a temp file + rename, so a killed run never
// leaves a torn manifest.  The CSVs follow WriteRoundsCsv's publish rule:
// after a run that streamed them into the same directory they are left
// as they are.
std::string WriteRunManifest(const std::string& dir, const RunManifest& m,
                             Registry* registry,
                             const Profiler* profiler = nullptr);

// Publishes `<run_dir>/rounds.csv` from the registry's round rows.  No-op
// while no rounds completed.  Called by WriteRunManifest at end of run
// and, via Registry::SetRoundSink, after every round barrier so killed
// runs keep partial per-round artifacts.  The header is the union of the
// metric names over all rows, and the registry remembers what its last
// publish left on disk:
//   - when the rows added since then bring no new column and the file
//     still has the size that publish left, their lines are appended with
//     one write (nothing at all when no row was added);
//   - otherwise — a new column, a different path, a fresh registry (a
//     resumed run), a truncated or deleted file — every row is rendered
//     and the file replaced atomically (temp file + rename).
// Either way the bytes equal a whole-history render of the same rows.  A
// reader tailing the file may see an unterminated last line while a round
// is being appended.  Serial phases only.
void WriteRoundsCsv(const std::string& run_dir, Registry& registry);

// Publishes `<run_dir>/tiers.csv`: one row per (run, round, tier) built by
// splitting the round rows' `<base>@<tier>` counter/histogram entries.
// Same publish rule and serial-phase contract as WriteRoundsCsv; no-op
// while no tier-keyed entries exist.
void WriteTiersCsv(const std::string& run_dir, Registry& registry);

}  // namespace mhbench::obs
