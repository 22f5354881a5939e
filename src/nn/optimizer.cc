#include "nn/optimizer.h"

#include <cmath>

namespace mhbench::nn {
namespace {

bool DecayEnabled(const std::string& name, double weight_decay,
                  const std::vector<std::string>& no_decay) {
  if (weight_decay <= 0) return false;
  for (const auto& token : no_decay) {
    if (name.find(token) != std::string::npos) return false;
  }
  return true;
}

}  // namespace

Sgd::Sgd(Module& module, SgdOptions options) : options_(std::move(options)) {
  module.CollectParams("", params_);
  is_running_stat_.reserve(params_.size());
  velocity_.reserve(params_.size());
  decay_enabled_.reserve(params_.size());
  for (const auto& p : params_) {
    is_running_stat_.push_back(p.name.find("running_") != std::string::npos);
    velocity_.emplace_back(p.param->value.shape());
    decay_enabled_.push_back(
        DecayEnabled(p.name, options_.weight_decay, options_.no_decay));
  }
}

void Sgd::ZeroGrad() {
  for (auto& p : params_) p.param->ZeroGrad();
}

void Sgd::ClipGradNorm(double max_norm) {
  MHB_CHECK_GT(max_norm, 0.0);
  double sq = 0.0;
  for (const auto& p : params_) sq += p.param->grad.SquaredL2();
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  const auto scale = static_cast<Scalar>(max_norm / norm);
  for (auto& p : params_) p.param->grad.Scale(scale);
}

void Sgd::Step() {
  const auto lr = static_cast<Scalar>(options_.lr);
  const auto mu = static_cast<Scalar>(options_.momentum);
  const auto wd = static_cast<Scalar>(options_.weight_decay);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    // Running statistics update themselves inside BatchNorm::Forward; the
    // optimizer must not touch them.
    if (is_running_stat_[i]) continue;
    Parameter& p = *params_[i].param;
    Tensor& v = velocity_[i];
    auto pv = p.value.data();
    auto pg = p.grad.data();
    auto vel = v.data();
    const bool decay = decay_enabled_[i];
    for (std::size_t j = 0; j < pv.size(); ++j) {
      Scalar g = pg[j];
      if (decay) g += wd * pv[j];
      vel[j] = mu * vel[j] + g;
      pv[j] -= lr * vel[j];
    }
  }
}

}  // namespace mhbench::nn
