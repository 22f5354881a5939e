#include "models/index_map.h"

#include <cmath>

namespace mhbench::models {

int ScaledCount(int full, double ratio) {
  MHB_CHECK_GT(full, 0);
  MHB_CHECK_GT(ratio, 0.0);
  MHB_CHECK_LE(ratio, 1.0);
  const int keep = static_cast<int>(std::ceil(ratio * full));
  return std::max(1, std::min(full, keep));
}

std::vector<int> PrefixIndices(int full, int keep) {
  MHB_CHECK_GT(keep, 0);
  MHB_CHECK_LE(keep, full);
  std::vector<int> idx(static_cast<std::size_t>(keep));
  for (int i = 0; i < keep; ++i) idx[static_cast<std::size_t>(i)] = i;
  return idx;
}

std::vector<int> RollingIndices(int full, int keep, int offset) {
  MHB_CHECK_GT(keep, 0);
  MHB_CHECK_LE(keep, full);
  MHB_CHECK_GE(offset, 0);
  std::vector<int> idx(static_cast<std::size_t>(keep));
  for (int i = 0; i < keep; ++i) {
    idx[static_cast<std::size_t>(i)] = (offset + i) % full;
  }
  return idx;
}

void MappingBuilder::Add(ops::DimIndices index) {
  slots_.push_back(std::move(index));
}

void MappingBuilder::AddLinear(const std::vector<int>* out_idx,
                               const std::vector<int>* in_idx, bool bias) {
  Add({MaybeIdx(out_idx), MaybeIdx(in_idx)});
  if (bias) Add({MaybeIdx(out_idx)});
}

void MappingBuilder::AddConv2d(const std::vector<int>* out_idx,
                               const std::vector<int>* in_idx, bool bias) {
  Add({MaybeIdx(out_idx), MaybeIdx(in_idx), std::nullopt, std::nullopt});
  if (bias) Add({MaybeIdx(out_idx)});
}

void MappingBuilder::AddBatchNorm(const std::vector<int>* ch_idx) {
  for (int i = 0; i < 4; ++i) Add({MaybeIdx(ch_idx)});
}

void MappingBuilder::AddLayerNorm(const std::vector<int>* ch_idx) {
  Add({MaybeIdx(ch_idx)});
  Add({MaybeIdx(ch_idx)});
}

void MappingBuilder::AddEmbedding() { Add({std::nullopt, std::nullopt}); }

void MappingBuilder::AddPositional() { Add({std::nullopt, std::nullopt}); }

void MappingBuilder::AddAttention() {
  for (int proj = 0; proj < 4; ++proj) {
    Add({std::nullopt, std::nullopt});
    Add({std::nullopt});
  }
}

ParamMapping MappingBuilder::Finalize(nn::Module& module) const {
  std::vector<nn::NamedParam> params;
  module.CollectParams("", params);
  MHB_CHECK_EQ(params.size(), slots_.size())
      << "mapping slots out of sync with module parameters";
  ParamMapping mapping;
  mapping.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const int nd = params[i].param->value.ndim();
    MHB_CHECK_EQ(static_cast<int>(slots_[i].size()), nd)
        << "slot" << i << "rank mismatch with local param" << params[i].name;
    mapping.push_back({params[i].name, slots_[i]});
  }
  return mapping;
}

}  // namespace mhbench::models
