// Server-side global model holder: a parameter store plus the models
// evaluated and trained from it.
//
// The store is authoritative: sub-model dispatch gathers from it, and every
// evaluation and every client's training starts from a model loaded from
// it.  Two kinds of model, both keyed by BuildSpec (DESIGN.md §5b):
//   - Model(spec) returns the one shared evaluation model of a spec, built
//     on its first use and reloaded on its first use after StoreChanged(),
//     so all evaluations of one spec share a model.
//   - TrainingModel(spec) returns the calling thread's own training model
//     of a spec, built on the thread's first checkout and reloaded on every
//     checkout, so a thread trains client after client in one model.
#pragma once

#include <atomic>
#include <cstddef>
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
  // Frees the calling thread's training models of this GlobalModel; other
  // threads free theirs when they exit.
  ~GlobalModel();

  GlobalModel(const GlobalModel&) = delete;
  GlobalModel& operator=(const GlobalModel&) = delete;

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

  // The calling thread's training model for `spec`, loaded with the
  // store's current values.  Built on the thread's first checkout of the
  // spec (the build seed is again no part of the key) and reloaded on every
  // checkout, since training changes it; the reference is valid until the
  // thread's next checkout from this GlobalModel.  Takes no lock, so any
  // number of threads may check out and train at once, but the store must
  // not change meanwhile.  A model lives on the thread that built it, which
  // also frees it, because a tensor returns its buffer to the freeing
  // thread's pool.  A checkout drops the thread's models of every spec it
  // used in neither the current nor the previous store version, so
  // per-round specs (FedRolex's rolling windows) do not pile up, and parks
  // the thread's other models: their values and gradients go back to its
  // pool until their next checkout, so an idle model keeps only its
  // structure and mapping.
  models::BuiltModel& TrainingModel(const models::BuildSpec& spec);

  // Training models the calling thread holds, over every GlobalModel.
  static std::size_t ThreadTrainingModels();

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
  const std::uint64_t id_;  // never reused; keys the threads' training models
  std::atomic<std::uint64_t> version_{1};  // bumped by StoreChanged
  core::Mutex mu_;
  std::map<models::BuildSpec, Entry> models_ MHB_GUARDED_BY(mu_);
  const models::BuiltModel* full_ = nullptr;  // the construction entry
};

}  // namespace mhbench::fl
