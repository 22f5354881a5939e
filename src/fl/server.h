// Server-side global model holder.
//
// Owns the full-size multi-head model of a family plus the authoritative
// ParamStore.  Sub-model dispatch gathers from the store; evaluation reads
// the full model, which Sync() refreshes from the store.
#pragma once

#include "fl/param_store.h"
#include "models/model_spec.h"

namespace mhbench::fl {

class GlobalModel {
 public:
  // Builds the family's full model (all heads) and seeds the store from it;
  // the two start in sync.
  GlobalModel(models::FamilyPtr family, Rng& init_rng);

  ParamStore& store() { return store_; }
  const ParamStore& store() const { return store_; }
  const models::ModelFamily& family() const { return *family_; }

  // Copies the store into the model.  Call once after every change to the
  // store (aggregation, checkpoint restore) and before evaluating.
  void Sync();

  // Logits of the deepest head with running statistics, from the model as
  // of the last Sync().  Const: any number of threads may evaluate at once.
  Tensor Logits(const Tensor& x) const;

  // The full model's structure (block names etc.), as of the last Sync().
  const models::TrunkModel& trunk() const { return built_.trunk(); }

 private:
  models::FamilyPtr family_;
  models::BuiltModel built_;
  ParamStore store_;
};

}  // namespace mhbench::fl
