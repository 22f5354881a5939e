// Weight initializers.
#pragma once

#include "core/rng.h"
#include "tensor/tensor.h"

namespace mhbench::nn {

// Kaiming/He normal initialization: N(0, sqrt(2 / fan_in)).
Tensor KaimingNormal(Shape shape, int fan_in, Rng& rng);

}  // namespace mhbench::nn
