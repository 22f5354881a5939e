#include "fl/param_store.h"

#include "core/bytes.h"
#include "core/error.h"
#include "fl/checkpoint.h"
#include "obs/det_audit.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace mhbench::fl {

void ParamStore::Relayout() {
  std::size_t offset = 0;
  obs::DetHash h;  // the fingerprint only has to tell layouts apart
  for (auto& [name, entry] : params_) {
    entry.offset = offset;
    entry.numel = entry.value.numel();
    offset += entry.numel;
    h.Update(name.data(), name.size() + 1);  // with the terminator
    h.UpdateU64(entry.numel);
  }
  flat_size_ = offset;
  fingerprint_ = h.value();
}

ParamStore ParamStore::FromModule(nn::Module& module) {
  ParamStore store;
  std::vector<nn::NamedParam> params;
  module.CollectParams("", params);
  for (auto& p : params) {
    MHB_CHECK(!store.Has(p.name)) << "duplicate parameter name" << p.name;
    store.params_[p.name].value = p.param->value;
  }
  store.Relayout();
  return store;
}

bool ParamStore::Has(const std::string& name) const {
  return params_.count(name) > 0;
}

const Tensor& ParamStore::Get(const std::string& name) const {
  auto it = params_.find(name);
  MHB_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second.value;
}

Tensor& ParamStore::GetMutable(const std::string& name) {
  auto it = params_.find(name);
  MHB_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second.value;
}

void ParamStore::Set(const std::string& name, Tensor value) {
  params_[name].value = std::move(value);
  Relayout();
}

std::size_t ParamStore::FlatOffset(const std::string& name) const {
  auto it = params_.find(name);
  MHB_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second.offset;
}

std::vector<std::string> ParamStore::Names() const {
  std::vector<std::string> names;
  names.reserve(params_.size());
  for (const auto& [name, entry] : params_) names.push_back(name);
  return names;
}

void ParamStore::LoadInto(nn::Module& module,
                          const models::ParamMapping& mapping) const {
  std::vector<nn::NamedParam> params;
  module.CollectParams("", params);
  MHB_CHECK_EQ(params.size(), mapping.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& slice = mapping[i];
    MHB_CHECK_EQ(params[i].name, slice.name) << "mapping order mismatch";
    const Tensor gathered = ops::GatherDims(Get(slice.name), slice.index);
    MHB_CHECK(gathered.shape() == params[i].param->value.shape())
        << "gathered shape mismatch for" << slice.name;
    params[i].param->value = gathered;
  }
}

void ParamStore::LoadAll(nn::Module& module) const {
  std::vector<nn::NamedParam> params;
  module.CollectParams("", params);
  for (auto& p : params) {
    const Tensor& value = Get(p.name);  // throws on a missing name
    MHB_CHECK(value.shape() == p.param->value.shape())
        << "restored shape mismatch for" << p.name;
    p.param->value = value;
  }
}

// Checkpoint format: u32 entry count, then per entry a u32-prefixed name
// and a SerializeTensor blob.
std::vector<std::uint8_t> ParamStore::Serialize() const {
  ByteWriter out;
  out.U32(static_cast<std::uint32_t>(params_.size()));
  for (const auto& [name, entry] : params_) {
    out.String(name);
    SerializeTensor(entry.value, out);
  }
  return out.Release();
}

ParamStore ParamStore::Deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes, "parameter store");
  const std::uint32_t count = in.U32();
  ParamStore store;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.String(kMaxSnapshotNameLen);
    store.params_[std::move(name)].value = DeserializeTensor(in);
  }
  in.ExpectEnd();
  store.Relayout();
  return store;
}

}  // namespace mhbench::fl
