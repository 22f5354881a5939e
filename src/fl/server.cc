#include "fl/server.h"

namespace mhbench::fl {

GlobalModel::GlobalModel(models::FamilyPtr family, Rng& init_rng)
    : family_(std::move(family)) {
  MHB_CHECK(family_ != nullptr);
  models::BuildSpec spec;
  spec.multi_head = true;  // the store must hold every head any client uses
  built_ = family_->Build(spec, init_rng);
  store_ = ParamStore::FromModule(*built_.net);
}

void GlobalModel::Sync() { store_.LoadInto(*built_.net, built_.mapping); }

Tensor GlobalModel::Logits(const Tensor& x) const {
  return built_.net->Infer(x, nn::NormStats::kRunning);
}

}  // namespace mhbench::fl
