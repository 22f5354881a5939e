#include "nn/init.h"

#include <cmath>

namespace mhbench::nn {

Tensor KaimingNormal(Shape shape, int fan_in, Rng& rng) {
  MHB_CHECK_GT(fan_in, 0);
  const auto stddev = static_cast<Scalar>(std::sqrt(2.0 / fan_in));
  return Tensor::Randn(std::move(shape), rng, stddev);
}

}  // namespace mhbench::nn
