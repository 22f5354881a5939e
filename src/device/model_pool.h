// Model pool (paper Figure 3): the measured candidate models a constraint
// case selects from.
//
// For a given algorithm and task, the pool holds every (model, ratio)
// variant with its measured system statistics on a reference device.  The
// constraint builders pick, per client, the largest variant that satisfies
// the client's budget — the paper's "keep the constraint consistent for all
// methods" selection principle.
#pragma once

#include <string>
#include <vector>

#include "device/cost_model.h"

namespace mhbench::device {

struct PoolEntry {
  std::string model;    // paper-scale model name
  int arch_index = 0;   // index into the topology family (0 for primary)
  double ratio = 1.0;   // width/depth ratio for scalable methods
  RoundCost cost;       // on the reference device
};

class ModelPool {
 public:
  // Pool for a width/depth algorithm: the primary model at the ratio
  // ladder.  For topology algorithms: each family member at full size.
  static ModelPool ForAlgorithm(const std::string& algorithm,
                                const PaperTaskDescs& descs,
                                const std::vector<double>& ratio_ladder,
                                const DeviceProfile& reference);

  const std::vector<PoolEntry>& entries() const { return entries_; }

 private:
  std::vector<PoolEntry> entries_;  // ascending by params
};

}  // namespace mhbench::device
