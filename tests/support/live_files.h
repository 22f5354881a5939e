// Attaches the CLI's live-telemetry publisher to a test's registry.
//
// While a LiveFilesSink is alive, every EndRound of `registry` writes
// metrics.prom and status.json into a fresh temporary directory, exactly as
// `mhbench run --manifest-dir` does; destruction uninstalls the round sink.
// The determinism suites attach one to every instrumented run, so their
// bit-identity assertions also prove that publishing cannot perturb a run.
#pragma once

#include <string>
#include <utility>

#include "obs/live.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::testsupport {

class LiveFilesSink {
 public:
  // A null `registry` attaches nothing.
  LiveFilesSink(obs::Registry* registry, std::string run_id,
                int rounds_total)
      : registry_(registry), dir_(MakeTempDir()) {
    if (registry_ == nullptr) return;
    registry_->SetRoundSink(
        [this, run_id = std::move(run_id),
         rounds_total](const obs::Registry::RoundRow&) {
          obs::WriteLiveFiles(dir_.path, *registry_, run_id, rounds_total);
          ++publishes_;
        });
  }
  ~LiveFilesSink() {
    if (registry_ != nullptr) registry_->SetRoundSink(nullptr);
  }

  LiveFilesSink(const LiveFilesSink&) = delete;
  LiveFilesSink& operator=(const LiveFilesSink&) = delete;

  const TempDir& dir() const { return dir_; }
  int publishes() const { return publishes_; }

 private:
  obs::Registry* const registry_;
  const TempDir dir_;
  int publishes_ = 0;
};

}  // namespace mhbench::testsupport
