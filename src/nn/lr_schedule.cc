#include "nn/lr_schedule.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace mhbench::nn {

StepDecayLr::StepDecayLr(int step, double gamma) : step_(step), gamma_(gamma) {
  MHB_CHECK_GT(step, 0);
  MHB_CHECK_GT(gamma, 0.0);
}

double StepDecayLr::Multiplier(int round, int /*total_rounds*/) const {
  MHB_CHECK_GE(round, 0);
  return std::pow(gamma_, round / step_);
}

CosineLr::CosineLr(double floor) : floor_(floor) {
  MHB_CHECK_GE(floor, 0.0);
  MHB_CHECK_LE(floor, 1.0);
}

double CosineLr::Multiplier(int round, int total_rounds) const {
  MHB_CHECK_GE(round, 0);
  MHB_CHECK_GT(total_rounds, 0);
  const double t = std::min(1.0, static_cast<double>(round) / total_rounds);
  return floor_ + (1.0 - floor_) * 0.5 * (1.0 + std::cos(M_PI * t));
}

}  // namespace mhbench::nn
