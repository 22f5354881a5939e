// Domain example 2: an edge deployment planner (no training).
//
// Uses the device cost model, the model pool and the constraint builders to
// answer the practitioner's question the paper's Section IV formalizes:
// "given my fleet, which model variant does each device get under each
// MHFL method, and what does a round cost?"
//
//   $ ./examples/fleet_planner
#include <cstdio>
#include <map>

#include "constraints/assignment.h"
#include "core/table.h"
#include "device/device_profile.h"
#include "device/ima_fleet.h"

int main() {
  using namespace mhbench;

  // A small fleet: sampled phone-class devices plus the paper's boards.
  device::FleetConfig fcfg;
  fcfg.num_clients = 12;
  fcfg.seed = 42;
  device::Fleet fleet = device::SampleFleet(fcfg);

  std::puts("Fleet (IMA-style sample):");
  AsciiTable fleet_table(
      {"Client", "GFLOP/s", "Bandwidth (Mbps)", "Memory budget (MB)", "GPU"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet_table.AddRow({std::to_string(i),
                        AsciiTable::Num(fleet[i].gflops, 2),
                        AsciiTable::Num(fleet[i].bandwidth_mbps, 1),
                        AsciiTable::Num(fleet[i].memory_mb, 0),
                        fleet[i].has_gpu ? "yes" : "no"});
  }
  std::fputs(fleet_table.Render().c_str(), stdout);

  for (const char* constraint : {"computation", "memory"}) {
    std::printf("\nAssignments for ResNet-101 on CIFAR-100, %s-limited:\n",
                constraint);
    AsciiTable table({"Client", "SHeteroFL", "DepthFL", "FeDepth",
                      "round time SHeteroFL (s)"});
    std::map<std::string, constraints::BuiltAssignments> built;
    for (const char* alg : {"sheterofl", "depthfl", "fedepth"}) {
      built[alg] = constraints::BuildConstrained(
          alg, "cifar100", fleet, constraints::ParseConstraintCase(constraint));
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      table.AddRow(
          {std::to_string(i),
           "x" + AsciiTable::Num(built["sheterofl"].assignments[i].capacity, 2),
           "x" + AsciiTable::Num(built["depthfl"].assignments[i].capacity, 2),
           "x" + AsciiTable::Num(built["fedepth"].assignments[i].capacity, 2),
           AsciiTable::Num(
               built["sheterofl"].assignments[i].system.compute_time_s, 1)});
    }
    std::fputs(table.Render().c_str(), stdout);
  }

  std::puts(
      "\nNote how the memory case diverges: DepthFL's high activation\n"
      "footprint (Table I) forces small variants on 4 GB-class devices,\n"
      "while FeDepth's segment-wise training keeps large models feasible —\n"
      "exactly the asymmetry behind the paper's Figure 6 reversal.");
  return 0;
}
