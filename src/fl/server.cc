#include "fl/server.h"

namespace mhbench::fl {

namespace {

// The store must hold every head any client uses.
models::BuildSpec FullSpec() {
  models::BuildSpec spec;
  spec.multi_head = true;
  return spec;
}

}  // namespace

GlobalModel::GlobalModel(models::FamilyPtr family, Rng& init_rng)
    : family_(std::move(family)) {
  MHB_CHECK(family_ != nullptr);
  core::MutexLock lock(mu_);
  Entry& full = models_[FullSpec()];
  full.built = family_->Build(FullSpec(), init_rng);
  full.loaded = version_;
  store_ = ParamStore::FromModule(*full.built.net);
  full_ = &full.built;
}

void GlobalModel::StoreChanged() {
  core::MutexLock lock(mu_);
  ++version_;
}

const models::BuiltModel& GlobalModel::Model(const models::BuildSpec& spec) {
  core::MutexLock lock(mu_);
  auto it = models_.find(spec);
  if (it == models_.end()) {
    Rng any_seed(0);
    it = models_.emplace(spec, Entry{family_->Build(spec, any_seed)}).first;
  }
  Entry& entry = it->second;
  if (entry.loaded != version_) {
    store_.LoadInto(*entry.built.net, entry.built.mapping);
    entry.loaded = version_;
  }
  return entry.built;
}

Tensor GlobalModel::Logits(const Tensor& x) {
  return Model(FullSpec()).net->Infer(x, nn::NormStats::kRunning);
}

}  // namespace mhbench::fl
