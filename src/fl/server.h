// Server-side global model holder: a parameter store plus the models
// evaluated from it.
//
// The store is authoritative: sub-model dispatch gathers from it, and every
// evaluation reads a model loaded from it.  Model(spec) returns the one
// model of a BuildSpec, built on its first use and reloaded on its first
// use after StoreChanged(), so all evaluations of one spec share a model.
#pragma once

#include <cstdint>
#include <map>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "fl/param_store.h"
#include "models/model_spec.h"

namespace mhbench::fl {

class GlobalModel {
 public:
  // Builds the family's full model (all heads) and seeds the store from it;
  // the two start in sync.  That model is the entry behind Logits() and
  // trunk().
  GlobalModel(models::FamilyPtr family, Rng& init_rng);

  ParamStore& store() { return store_; }
  const ParamStore& store() const { return store_; }
  const models::ModelFamily& family() const { return *family_; }

  // Marks every model stale.  Call after each change to the store
  // (aggregation, checkpoint restore) while no thread evaluates; the
  // models reload lazily, so the call itself is O(1).
  void StoreChanged();

  // The model for `spec` with the store's current values.  One mutex guards
  // the lookup, build and reload, never inference: any number of threads
  // may call this and run const Infer on the result at once.  The reference
  // lives as long as the GlobalModel.  The build seed is no part of the
  // key, since LoadInto overwrites every parameter and running statistic.
  const models::BuiltModel& Model(const models::BuildSpec& spec);

  // Logits of the full model's deepest head with running statistics.
  Tensor Logits(const Tensor& x);

  // The full model's structure (block names etc.); its weights may be stale.
  const models::TrunkModel& trunk() const { return full_->trunk(); }

 private:
  struct Entry {
    models::BuiltModel built;
    std::uint64_t loaded = 0;  // the store version its weights match
  };

  models::FamilyPtr family_;
  ParamStore store_;
  core::Mutex mu_;
  std::uint64_t version_ MHB_GUARDED_BY(mu_) = 1;
  std::map<models::BuildSpec, Entry> models_ MHB_GUARDED_BY(mu_);
  const models::BuiltModel* full_ = nullptr;  // the construction entry
};

}  // namespace mhbench::fl
