// Shared numerical-gradient checking helper for module tests.
//
// Defines L(x) = sum_i c_i * Forward(x)_i with fixed random coefficients c,
// runs the module's Backward with grad_out = c, and compares both input and
// parameter gradients against central finite differences.
#pragma once

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/module.h"

namespace mhbench::nn::testing {

struct GradCheckOptions {
  float epsilon = 1e-2f;
  float tolerance = 2e-2f;  // relative-ish tolerance on gradients
  bool check_params = true;
  // Check at most this many coordinates per tensor (spread evenly); keeps
  // large layers fast.
  int max_coords = 24;
};

inline void ExpectGradientsClose(Module& module, const Tensor& input,
                                 Rng& rng, const GradCheckOptions& opts = {}) {
  Tensor coeffs;
  {
    const Tensor y = module.Forward(input);
    coeffs = Tensor::Randn(y.shape(), rng);
  }
  auto loss_at = [&](const Tensor& x) -> double {
    const Tensor y = module.Forward(x);
    double l = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      l += static_cast<double>(coeffs[i]) * y[i];
    }
    return l;
  };

  // Analytic gradients.
  module.ZeroGrad();
  module.Forward(input);
  const Tensor grad_input = module.Backward(coeffs);
  ASSERT_EQ(grad_input.shape(), input.shape());

  // Numerical input gradient.
  Tensor x = input;
  const std::size_t n = x.numel();
  const std::size_t stride_in =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(opts.max_coords));
  for (std::size_t i = 0; i < n; i += stride_in) {
    const Scalar orig = x[i];
    x[i] = orig + opts.epsilon;
    const double lp = loss_at(x);
    x[i] = orig - opts.epsilon;
    const double lm = loss_at(x);
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * opts.epsilon);
    EXPECT_NEAR(grad_input[i], num,
                opts.tolerance * std::max(1.0, std::abs(num)))
        << "input coord " << i;
  }

  if (!opts.check_params) return;

  std::vector<NamedParam> params;
  module.CollectParams("", params);
  for (auto& np : params) {
    if (np.name.find("running_") != std::string::npos) continue;
    Tensor& v = np.param->value;
    const Tensor& g = np.param->grad;
    const std::size_t m = v.numel();
    const std::size_t stride =
        std::max<std::size_t>(1, m / static_cast<std::size_t>(opts.max_coords));
    for (std::size_t i = 0; i < m; i += stride) {
      const Scalar orig = v[i];
      v[i] = orig + opts.epsilon;
      const double lp = loss_at(input);
      v[i] = orig - opts.epsilon;
      const double lm = loss_at(input);
      v[i] = orig;
      const double num = (lp - lm) / (2.0 * opts.epsilon);
      EXPECT_NEAR(g[i], num, opts.tolerance * std::max(1.0, std::abs(num)))
          << "param " << np.name << " coord " << i;
    }
  }
}

}  // namespace mhbench::nn::testing
