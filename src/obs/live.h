// Live telemetry as files (DESIGN.md §5h): at every round barrier the CLI's
// round sink publishes two documents into the run directory, so an operator
// can follow a campaign with `cat`, `tools/mhb_watch.py --dir` or a
// Prometheus node_exporter textfile collector:
//
//   metrics.prom — Prometheus text exposition 0.0.4: round progress,
//                  simulated clock, last evaluated accuracy, every registry
//                  counter (`mhb_counter_*`) and histogram (`mhb_hist_*`
//                  summaries with p50/p95/p99 quantile labels); tier twins
//                  render as a `tier` label on the base family;
//   status.json  — round progress vs. total, the accuracy-curve tail,
//                  counters, histogram quantiles, per-tier rollups and the
//                  last round's gauges.
//
// Both renderers are pure functions of a Registry::SnapshotTotals() value
// (plus the run id and round total for status.json) — the same view
// manifest.json reads, so the final files carry the manifest's totals.  The
// snapshot lists every registered histogram; both documents leave the
// empty ones out.  `rounds_completed` counts the rounds of the engine run
// that cut the last row, so a suite sharing one registry (the CLI runs a
// baseline first) reads like its current run.  The publisher
// runs on the barrier thread, so nothing runs concurrently with client
// work and nothing written here feeds back into the registry or the engine:
// publishing cannot change results, counters or histograms at any
// --threads.  The parallel/resume determinism tests attach it to prove so.
#pragma once

#include <string>

#include "obs/registry.h"

namespace mhbench::obs {

// The metrics.prom document for `snap`.
std::string MetricsText(const Registry::LiveSnapshot& snap);

// The status.json document for `snap`.  `rounds_total` 0 means unknown.
std::string StatusJson(const Registry::LiveSnapshot& snap,
                       const std::string& run_id, int rounds_total);

// Renders one snapshot of `registry` into `<run_dir>/metrics.prom` and
// `<run_dir>/status.json`, each replaced atomically (temp file + rename),
// so a reader never sees a torn document.  Throws mhbench::Error on I/O
// errors.  Serial phases only (a round sink, or after the run).
void WriteLiveFiles(const std::string& run_dir, const Registry& registry,
                    const std::string& run_id, int rounds_total);

}  // namespace mhbench::obs
