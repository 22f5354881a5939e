// mhb-lint: path(src/fl/fixture_barrier_phase_clean.cc)
// The annotated-phase convention used correctly: registration and barrier
// merges under 'serial', thread-safe Add/Observe under 'parallel'.
#include "obs/registry.h"

namespace mhbench {

// mhb-obs-phase: serial — registration happens before dispatch.
void Register(obs::Registry* reg) {
  reg->Counter("bytes_up");
  reg->AddNamed("agg_updates", 1);
}

// mhb-obs-phase: parallel — thread-safe pending writes only.
void Worker(obs::Registry* reg, std::size_t id) {
  reg->Add(id, 1);
  reg->Observe(id, 2);
}

// mhb-obs-phase: serial — the round barrier.
void Barrier(obs::Registry* reg) {
  reg->EndRound("algo", 0);
  reg->Flush();
}

}  // namespace mhbench
