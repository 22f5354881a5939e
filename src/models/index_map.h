// Parameter mappings between client sub-models and the global model.
//
// A client model's parameter tensors are *views* (materialized gathers) of
// the global model's tensors.  Sub-models share the global model's module
// structure (blocks and heads carry stable semantic names), so a local
// parameter and its global source have the same hierarchical name; the
// mapping only records the per-dimension kept-index lists.  The FL layer
// uses it in both directions: gather (model dispatch) and scatter-average
// (aggregation).
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace mhbench::models {

struct ParamSlice {
  std::string name;        // hierarchical name (same locally and globally)
  ops::DimIndices index;   // per-dim kept indices into the global tensor
};

using ParamMapping = std::vector<ParamSlice>;

// Kept-channel index helpers -------------------------------------------------

// ceil(ratio * full), clamped to [1, full].
int ScaledCount(int full, double ratio);

// Prefix selection {0, 1, ..., keep-1} (Fjord / HeteroFL nested sub-models).
std::vector<int> PrefixIndices(int full, int keep);

// Rolling-window selection {(offset + i) mod full : i < keep} (FedRolex).
std::vector<int> RollingIndices(int full, int keep, int offset);

// Records one DimIndices slot per parameter tensor in construction order and
// zips them with the module's CollectParams traversal afterwards.  Families
// call Add* while assembling layers; the slot order must equal the
// traversal order (which it is when slots are added as layers are added:
// stem, then blocks, then heads).
class MappingBuilder {
 public:
  void Add(ops::DimIndices index);

  // Convenience for common layer shapes.  A null index pointer means the
  // dimension is kept in full.
  void AddLinear(const std::vector<int>* out_idx,
                 const std::vector<int>* in_idx, bool bias);
  void AddConv2d(const std::vector<int>* out_idx,
                 const std::vector<int>* in_idx, bool bias);
  void AddBatchNorm(const std::vector<int>* ch_idx);  // 4 tensors
  void AddLayerNorm(const std::vector<int>* ch_idx);  // gamma/beta
  void AddEmbedding();                                // full table
  void AddPositional();                               // full table
  void AddAttention();                                // 4 full projections

  // Verifies the slot count matches the module's parameters and returns the
  // mapping with names filled in from the module traversal.
  ParamMapping Finalize(nn::Module& module) const;

 private:
  std::vector<ops::DimIndices> slots_;
};

// Converts an optional index-list pointer into a DimIndices entry.
inline std::optional<std::vector<int>> MaybeIdx(const std::vector<int>* idx) {
  if (idx == nullptr) return std::nullopt;
  return *idx;
}

}  // namespace mhbench::models
