// Device-tier taxonomy for cohort observability (DESIGN.md §5j).
//
// The paper reads every MHFL result per device class: the IMA fleet's
// three-tier memory distribution (16 GB GPU / 4 GB GPU / CPU-only).  The
// observability layer rolls client-scoped counters and histograms up by
// the same taxonomy, so a tier is a stable short string derived from the
// sampled device's memory class and GPU presence — nothing else, so the
// mapping is a pure function and tier-keyed totals inherit the registry's
// bit-identical-across-threads contract.
#pragma once

#include <string>

namespace mhbench::device {

// Tier name for a sampled device:
//   "cpu"    — no GPU (the fleet's CPU-only tier)
//   "mem16g" — GPU with >= 4 GiB of device memory (the 16 GB tier)
//   "mem4g"  — any other GPU device (the 4 GB tier)
// Matches the ima_fleet sampler's three memory tiers; synthetic or test
// fleets that never set a tier report as "untiered" in the tier rollups.
std::string DeviceTierName(double memory_mb, bool has_gpu);

}  // namespace mhbench::device
