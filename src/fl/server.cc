#include "fl/server.h"

#include <vector>

namespace mhbench::fl {

namespace {

// The store must hold every head any client uses.
models::BuildSpec FullSpec() {
  models::BuildSpec spec;
  spec.multi_head = true;
  return spec;
}

// A thread's training model of one spec.  While idle (another model of the
// thread is checked out) it is parked: its values and gradients are back in
// the thread's tensor pool, and only the module structure and mapping stay.
struct TrainingEntry {
  explicit TrainingEntry(models::BuiltModel b) : built(std::move(b)) {
    std::vector<nn::NamedParam> named;
    built.net->CollectParams("", named);
    for (const nn::NamedParam& p : named) {
      params.push_back(p.param);
      shapes.push_back(p.param->value.shape());
    }
  }

  void Park() {
    for (nn::Parameter* p : params) {
      p->value = Tensor();
      p->grad = Tensor();
    }
    parked = true;
  }

  // Values uninitialized (LoadInto overwrites them all), gradients zeroed
  // as a fresh build's are.
  void Unpark() {
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = Tensor::Uninitialized(shapes[i]);
      params[i]->grad = Tensor(shapes[i]);
    }
    parked = false;
  }

  models::BuiltModel built;
  std::vector<nn::Parameter*> params;  // built.net's, in CollectParams order
  std::vector<Shape> shapes;           // their value shapes
  std::uint64_t used = 0;  // the store version of its last checkout
  bool parked = false;
};
using TrainingModels = std::map<models::BuildSpec, TrainingEntry>;

// The calling thread's training models, by GlobalModel id.  Thread-local,
// so a model is built, trained and freed on one thread and dies with it.
thread_local std::map<std::uint64_t, TrainingModels> tl_training;

std::atomic<std::uint64_t> next_id{1};

}  // namespace

GlobalModel::GlobalModel(models::FamilyPtr family, Rng& init_rng)
    : family_(std::move(family)), id_(next_id.fetch_add(1)) {
  MHB_CHECK(family_ != nullptr);
  core::MutexLock lock(mu_);
  Entry& full = models_[FullSpec()];
  full.built = family_->Build(FullSpec(), init_rng);
  full.loaded = version_.load();
  store_ = ParamStore::FromModule(*full.built.net);
  full_ = &full.built;
}

GlobalModel::~GlobalModel() { tl_training.erase(id_); }

void GlobalModel::StoreChanged() { version_.fetch_add(1); }

const models::BuiltModel& GlobalModel::Model(const models::BuildSpec& spec) {
  core::MutexLock lock(mu_);
  auto it = models_.find(spec);
  if (it == models_.end()) {
    Rng any_seed(0);
    it = models_.emplace(spec, Entry{family_->Build(spec, any_seed)}).first;
  }
  Entry& entry = it->second;
  const std::uint64_t version = version_.load();
  if (entry.loaded != version) {
    store_.LoadInto(*entry.built.net, entry.built.mapping);
    entry.loaded = version;
  }
  return entry.built;
}

models::BuiltModel& GlobalModel::TrainingModel(const models::BuildSpec& spec) {
  const std::uint64_t version = version_.load();
  TrainingModels& mine = tl_training[id_];
  auto it = mine.find(spec);
  if (it != mine.end()) it->second.used = version;
  std::erase_if(mine, [version](const auto& kv) {
    return kv.second.used + 1 < version;
  });
  // Park the idle models before the checked-out one draws its tensors, so
  // a thread's models of several specs share buffers as successive
  // per-client builds did.
  for (auto other = mine.begin(); other != mine.end(); ++other) {
    if (other != it && !other->second.parked) other->second.Park();
  }
  if (it == mine.end()) {
    Rng any_seed(0);
    it = mine.emplace(spec, TrainingEntry(family_->Build(spec, any_seed)))
             .first;
    it->second.used = version;
  } else if (it->second.parked) {
    it->second.Unpark();
  }
  models::BuiltModel& built = it->second.built;
  store_.LoadInto(*built.net, built.mapping);
  return built;
}

std::size_t GlobalModel::ThreadTrainingModels() {
  std::size_t n = 0;
  for (const auto& owner : tl_training) n += owner.second.size();
  return n;
}

Tensor GlobalModel::Logits(const Tensor& x) {
  return Model(FullSpec()).net->Infer(x, nn::NormStats::kRunning);
}

}  // namespace mhbench::fl
