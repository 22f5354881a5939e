// Constraint cases: map a device fleet to per-client model assignments for
// a given MHFL algorithm, under the paper's computation- / communication- /
// memory-limited definitions (Section IV) and their combinations.
//
// Selection follows the paper's model-pool principle: per client, pick the
// largest candidate (ratio for width/depth methods, architecture for
// topology methods) whose cost fits the client's budget; the budget itself
// is held identical across methods for fairness.
#pragma once

#include <string>
#include <vector>

#include "device/cost_model.h"
#include "device/ima_fleet.h"
#include "fl/client.h"

namespace mhbench::constraints {

struct ConstraintFlags {
  bool computation = false;
  bool communication = false;
  bool memory = false;
};

struct ConstraintOptions {
  std::vector<double> ratio_ladder = {0.25, 0.5, 0.75, 1.0};
  // Computation deadline: the full model's training time on the fleet's
  // q-quantile fastest device (clients faster than that run the full
  // model; slower clients shrink theirs).
  double deadline_quantile = 0.25;
  // Communication budget per round (the paper's example setting: 200 s).
  double comm_budget_s = 200.0;
  // Bandwidth / compute used for the resources a case holds "identical".
  double fixed_bandwidth_mbps = 20.0;
  double fixed_gflops_scale = 1.0;  // x Jetson Nano
};

struct BuiltAssignments {
  std::vector<fl::ClientAssignment> assignments;
  // The equalized budget levels actually used.
  double compute_deadline_s = 0.0;
  double comm_budget_s = 0.0;
};

// The flags of a constraint case named exactly "computation",
// "communication", "memory", "comm+mem" or "comp+comm+mem" (the paper's
// Section IV cases and Figure 7 combinations); throws Error listing the
// names for anything else.
ConstraintFlags ParseConstraintCase(const std::string& name);

// Core builder; computation_limited.h and combined.h wrap it.
BuiltAssignments BuildConstrained(const std::string& algorithm,
                                  const std::string& task_name,
                                  const device::Fleet& fleet,
                                  const ConstraintFlags& flags,
                                  const ConstraintOptions& options = {});

}  // namespace mhbench::constraints
