#include "fl/aggregator.h"

#include "core/error.h"
#include "obs/profile.h"

namespace mhbench::fl {

ClientUpdate ExtractUpdate(nn::Module& model,
                           const models::ParamMapping& mapping,
                           const ParamStore& reference, double weight) {
  MHB_CHECK_GT(weight, 0.0);
  obs::ProfileScope profile_scope("extract_update");
  std::vector<nn::NamedParam> params;
  model.CollectParams("", params);
  MHB_CHECK_EQ(params.size(), mapping.size());
  std::size_t total = 0;
  for (const auto& p : params) total += p.param->value.numel();
  ClientUpdate update;
  update.weight = weight;
  update.values.reserve(total);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& slice = mapping[i];
    MHB_CHECK_EQ(params[i].name, slice.name) << "mapping order mismatch";
    const Tensor& value = params[i].param->value;
    const Shape selected = ops::AppendSelectedRuns(
        reference.Get(slice.name).shape(), slice.index,
        reference.FlatOffset(slice.name), update.runs);
    MHB_CHECK(selected == value.shape())
        << "parameter" << slice.name << ShapeToString(value.shape())
        << "does not match its selection" << ShapeToString(selected);
    update.values.insert(update.values.end(), value.data().begin(),
                         value.data().end());
  }
  return update;
}

void MaskedAverager::Accumulate(const ClientUpdate& update,
                                const ParamStore& reference) {
  MHB_CHECK_GT(update.weight, 0.0);
  obs::ProfileScope profile_scope("aggregate_accumulate");
  const std::size_t n = reference.flat_size();
  MHB_CHECK(empty() || reference.layout_fingerprint() == layout_)
      << "update accumulated against a store of another layout";
  // Validate every run before touching the buffers, so a bad update leaves
  // the accumulator as it was.
  std::size_t covered = 0;
  for (const ops::CoordRun& run : update.runs) {
    MHB_CHECK(run.offset <= n && run.length <= n - run.offset)
        << "run [" << run.offset << "+" << run.length
        << ") outside the layout of" << n;
    covered += run.length;
  }
  MHB_CHECK_EQ(covered, update.values.size());
  if (empty()) {
    layout_ = reference.layout_fingerprint();
    sum_.assign(n, 0.0f);
    weight_.assign(n, 0.0f);
  }

  // The per-coordinate operations of the masked average, in participant
  // order: sum += w * v and weight += w, both in float.
  const auto w = static_cast<Scalar>(update.weight);
  const Scalar* v = update.values.data();
  for (const ops::CoordRun& run : update.runs) {
    Scalar* s = sum_.data() + run.offset;
    Scalar* ws = weight_.data() + run.offset;
    for (std::size_t i = 0; i < run.length; ++i) {
      s[i] += w * v[i];
      ws[i] += w;
    }
    v += run.length;
  }
}

void MaskedAverager::ApplyTo(ParamStore& store) {
  MHB_CHECK(!empty()) << "no accumulated updates";
  obs::ProfileScope profile_scope("aggregate_apply");
  MHB_CHECK_EQ(store.layout_fingerprint(), layout_)
      << "averaged into a store of another layout";
  MHB_CHECK_EQ(store.flat_size(), sum_.size());
  store.ForEachInLayout([&](std::size_t offset, Tensor& target) {
    const Scalar* s = sum_.data() + offset;
    const Scalar* ws = weight_.data() + offset;
    for (std::size_t i = 0; i < target.numel(); ++i) {
      if (ws[i] > 0) target[i] = s[i] / ws[i];
    }
  });
  sum_.clear();
  weight_.clear();
}

}  // namespace mhbench::fl
