#include "fl/param_store.h"

#include "core/bytes.h"
#include "core/error.h"
#include "fl/checkpoint.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace mhbench::fl {

ParamStore ParamStore::FromModule(nn::Module& module) {
  ParamStore store;
  std::vector<nn::NamedParam> params;
  module.CollectParams("", params);
  for (auto& p : params) {
    MHB_CHECK(!store.Has(p.name)) << "duplicate parameter name" << p.name;
    store.params_[p.name] = p.param->value;
  }
  return store;
}

bool ParamStore::Has(const std::string& name) const {
  return params_.count(name) > 0;
}

const Tensor& ParamStore::Get(const std::string& name) const {
  auto it = params_.find(name);
  MHB_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second;
}

Tensor& ParamStore::GetMutable(const std::string& name) {
  auto it = params_.find(name);
  MHB_CHECK(it != params_.end()) << "unknown parameter" << name;
  return it->second;
}

void ParamStore::Set(const std::string& name, Tensor value) {
  params_[name] = std::move(value);
}

std::vector<std::string> ParamStore::Names() const {
  std::vector<std::string> names;
  names.reserve(params_.size());
  for (const auto& [name, t] : params_) names.push_back(name);
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
  for (const auto& [name, tensor] : params_) {
    out.String(name);
    SerializeTensor(tensor, out);
  }
  return out.Release();
}

ParamStore ParamStore::Deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes, "parameter store");
  const std::uint32_t count = in.U32();
  ParamStore store;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.String(kMaxSnapshotNameLen);
    store.params_[std::move(name)] = DeserializeTensor(in);
  }
  in.ExpectEnd();
  return store;
}

}  // namespace mhbench::fl
