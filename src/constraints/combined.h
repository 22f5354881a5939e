// Constraint combination (paper Figure 7): computation+communication+memory
// limited MHFL.
#pragma once

#include "constraints/assignment.h"

namespace mhbench::constraints {

BuiltAssignments BuildCompCommMemLimited(
    const std::string& algorithm, const std::string& task_name,
    const device::Fleet& fleet, const ConstraintOptions& options = {});

}  // namespace mhbench::constraints
