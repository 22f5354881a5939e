// Server-side parameter store: named global tensors, their flat layout,
// and the gather plumbing from the store into (sub-)models.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/error.h"
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

  // Flat layout: the tensors' coordinates concatenated in name order, the
  // order Names() and Serialize() walk.  Recomputed only where the name set
  // can change (FromModule, Set, Deserialize); copies share it, and
  // layout_fingerprint() is equal exactly when names and sizes are (up to
  // hash collisions).  A client upload names its coordinates in it
  // (fl/aggregator.h).
  std::size_t FlatOffset(const std::string& name) const;
  std::size_t flat_size() const { return flat_size_; }
  std::uint64_t layout_fingerprint() const { return fingerprint_; }

  // Calls fn(offset, tensor) for every tensor in layout order.  Throws
  // Error for a tensor that no longer holds the size the layout gives it
  // (resized through GetMutable).
  template <typename Fn>
  void ForEachInLayout(Fn&& fn) {
    for (auto& [name, entry] : params_) {
      MHB_CHECK_EQ(entry.value.numel(), entry.numel)
          << name << "was resized outside the store's layout";
      fn(entry.offset, entry.value);
    }
  }

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
  struct Entry {
    Tensor value;
    std::size_t offset = 0;  // into the flat layout
    std::size_t numel = 0;   // the size the layout was computed for
  };
  void Relayout();

  std::map<std::string, Entry> params_;
  std::size_t flat_size_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace mhbench::fl
