#include "device/model_pool.h"

#include <algorithm>

#include "core/error.h"

namespace mhbench::device {

ModelPool ModelPool::ForAlgorithm(const std::string& algorithm,
                                  const PaperTaskDescs& descs,
                                  const std::vector<double>& ratio_ladder,
                                  const DeviceProfile& reference) {
  MHB_CHECK(!ratio_ladder.empty());
  ModelPool pool;
  if (AxisOf(algorithm) == ScaleAxis::kFull) {
    for (std::size_t a = 0; a < descs.topology.size(); ++a) {
      CostModel cm(descs.topology[a]);
      PoolEntry e;
      e.model = descs.topology[a].name;
      e.arch_index = static_cast<int>(a);
      e.ratio = 1.0;
      e.cost = cm.Cost(algorithm, 1.0, reference);
      pool.entries_.push_back(std::move(e));
    }
  } else {
    CostModel cm(descs.primary);
    for (double r : ratio_ladder) {
      PoolEntry e;
      e.model = descs.primary.name;
      e.ratio = r;
      e.cost = cm.Cost(algorithm, r, reference);
      pool.entries_.push_back(std::move(e));
    }
  }
  std::sort(pool.entries_.begin(), pool.entries_.end(),
            [](const PoolEntry& a, const PoolEntry& b) {
              return a.cost.params_m < b.cost.params_m;
            });
  return pool;
}

}  // namespace mhbench::device
