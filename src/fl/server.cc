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

Tensor GlobalModel::EnsembleLogits(const Tensor& x) const {
  auto logits = trunk().InferHeads(x, nn::NormStats::kRunning).logits;
  Tensor mean = logits.front();
  for (std::size_t h = 1; h < logits.size(); ++h) {
    mean.AddInPlace(logits[h]);
  }
  mean.Scale(1.0f / static_cast<Scalar>(logits.size()));
  return mean;
}

}  // namespace mhbench::fl
