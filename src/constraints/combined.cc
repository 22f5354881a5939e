#include "constraints/combined.h"

namespace mhbench::constraints {

BuiltAssignments BuildCompCommMemLimited(const std::string& algorithm,
                                         const std::string& task_name,
                                         const device::Fleet& fleet,
                                         const ConstraintOptions& options) {
  ConstraintFlags flags;
  flags.computation = true;
  flags.communication = true;
  flags.memory = true;
  return BuildConstrained(algorithm, task_name, fleet, flags, options);
}

}  // namespace mhbench::constraints
