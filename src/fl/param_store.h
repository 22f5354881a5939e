// Server-side parameter store: named global tensors plus gather/scatter
// plumbing between the store and (sub-)models.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "models/index_map.h"
#include "nn/module.h"

namespace mhbench::fl {

class ParamStore {
 public:
  ParamStore() = default;

  // Snapshots every parameter of `module` (values only).
  static ParamStore FromModule(nn::Module& module);

  bool Has(const std::string& name) const;
  const Tensor& Get(const std::string& name) const;
  Tensor& GetMutable(const std::string& name);
  void Set(const std::string& name, Tensor value);

  std::vector<std::string> Names() const;  // sorted
  std::size_t size() const { return params_.size(); }

  // Writes gathered global values into the module's parameters according to
  // the mapping (model dispatch direction).
  void LoadInto(nn::Module& module, const models::ParamMapping& mapping) const;

  // Writes every parameter of `module` from the same-named store entry
  // (full-tensor, mapping-free restore — the checkpoint direction; shapes
  // must match exactly and every parameter must be present).
  void LoadAll(nn::Module& module) const;

  // Checkpointing: byte-serializes every named tensor (little-endian;
  // format documented in param_store.cc) and restores it.  Snapshots carry
  // these bytes inside their "algorithm" section (fl/checkpoint.h).
  std::vector<std::uint8_t> Serialize() const;
  static ParamStore Deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  std::map<std::string, Tensor> params_;
};

}  // namespace mhbench::fl
