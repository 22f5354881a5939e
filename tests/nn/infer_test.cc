// The evaluation pass (Module::Infer) against the training pass, on every
// sim-scale model family (conv + batch norm, depthwise and inception-style
// branches, embedding + attention + layer norm):
//   - Infer writes nothing: every parameter byte, BatchNorm running
//     statistics included, is unchanged afterwards;
//   - Infer(x, NormStats::kBatch) returns the bytes the training Forward(x)
//     returns, head by head, embedding included;
//   - threads sharing one model get the serial bytes (the TSan leg runs
//     this, so a write hiding in an Infer path shows up as a race).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "models/zoo.h"
#include "nn/module.h"

namespace mhbench::nn {
namespace {

using models::BuildSpec;
using models::BuiltModel;
using models::FamilyPtr;
using models::TrunkModel;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(Scalar)) == 0;
}

// Every family of every task, plus the mixed CV pool.
std::vector<FamilyPtr> AllFamilies() {
  std::vector<FamilyPtr> out;
  for (const std::string& task : models::AllTaskNames()) {
    const models::TaskModels tm = models::MakeTaskModels(task);
    out.push_back(tm.primary);
    for (const FamilyPtr& f : tm.topology) out.push_back(f);
  }
  for (const FamilyPtr& f : models::MakeMixedCvFamilies(10)) {
    out.push_back(f);
  }
  return out;
}

Tensor MakeInput(const models::ModelFamily& fam, int batch, Rng& rng) {
  Shape shape = fam.sample_shape();
  shape.insert(shape.begin(), batch);
  if (shape.size() == 2) {  // token ids
    Tensor ids(shape);
    for (auto& v : ids.data()) v = static_cast<Scalar>(rng.UniformInt(16));
    return ids;
  }
  return Tensor::Randn(shape, rng, 1.0f);
}

// A model with every head attached and non-trivial running statistics.
BuiltModel BuildAllHeads(const models::ModelFamily& fam, Rng& rng) {
  BuildSpec spec;
  spec.multi_head = true;
  BuiltModel m = fam.Build(spec, rng);
  std::vector<NamedParam> params;
  m.net->CollectParams("", params);
  for (auto& p : params) {
    if (p.name.find("running_") == std::string::npos) continue;
    for (auto& v : p.param->value.data()) {
      v = 0.5f + static_cast<Scalar>(rng.Uniform());
    }
  }
  return m;
}

std::vector<Tensor> ParamSnapshot(Module& m) {
  std::vector<NamedParam> params;
  m.CollectParams("", params);
  std::vector<Tensor> out;
  for (const auto& p : params) {
    out.push_back(p.param->value);
    out.push_back(p.param->grad);
  }
  return out;
}

TEST(InferTest, LeavesEveryParameterUnchanged) {
  Rng rng(1);
  for (const FamilyPtr& fam : AllFamilies()) {
    SCOPED_TRACE(fam->name());
    BuiltModel m = BuildAllHeads(*fam, rng);
    const std::vector<Tensor> before = ParamSnapshot(*m.net);
    const Tensor x = MakeInput(*fam, 3, rng);
    m.trunk().InferHeads(x, NormStats::kBatch, /*embedding=*/true);
    m.trunk().InferHeads(x, NormStats::kRunning);
    m.net->Infer(x, NormStats::kBatch);
    const std::vector<Tensor> after = ParamSnapshot(*m.net);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_TRUE(SameBytes(before[i], after[i])) << "tensor " << i;
    }
  }
}

TEST(InferTest, BatchStatsMatchTrainingForwardBitForBit) {
  Rng rng(2);
  for (const FamilyPtr& fam : AllFamilies()) {
    SCOPED_TRACE(fam->name());
    BuiltModel m = BuildAllHeads(*fam, rng);
    TrunkModel& trunk = m.trunk();
    const Tensor x = MakeInput(*fam, 4, rng);
    const TrunkModel::HeadsOutput inferred =
        trunk.InferHeads(x, NormStats::kBatch, /*embedding=*/true);
    trunk.set_capture_embedding(true);
    const std::vector<Tensor> trained = trunk.ForwardHeads(x);
    ASSERT_EQ(inferred.logits.size(), trained.size());
    for (std::size_t h = 0; h < trained.size(); ++h) {
      EXPECT_TRUE(SameBytes(inferred.logits[h], trained[h])) << "head " << h;
    }
    EXPECT_TRUE(SameBytes(inferred.embedding, trunk.last_embedding()));
  }
}

TEST(InferTest, ThreadsSharingOneModelGetSerialBytes) {
  Rng rng(3);
  for (const char* task : {"cifar10", "agnews"}) {
    SCOPED_TRACE(task);
    const FamilyPtr fam = models::MakeTaskModels(task).primary;
    const BuiltModel m = BuildAllHeads(*fam, rng);
    std::vector<Tensor> inputs;
    std::vector<Tensor> serial;
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(MakeInput(*fam, 5, rng));
      const NormStats stats = i % 2 == 0 ? NormStats::kBatch
                                         : NormStats::kRunning;
      serial.push_back(m.net->Infer(inputs.back(), stats));
    }
    constexpr int kThreads = 4;
    constexpr int kRepeats = 3;
    std::vector<std::vector<Tensor>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRepeats; ++r) {
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::size_t k = (i + static_cast<std::size_t>(t)) %
                                  inputs.size();
            const NormStats stats = k % 2 == 0 ? NormStats::kBatch
                                               : NormStats::kRunning;
            got[static_cast<std::size_t>(t)].push_back(
                m.net->Infer(inputs[k], stats));
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      const auto& mine = got[static_cast<std::size_t>(t)];
      ASSERT_EQ(mine.size(), inputs.size() * kRepeats);
      for (std::size_t j = 0; j < mine.size(); ++j) {
        const std::size_t k =
            (j % inputs.size() + static_cast<std::size_t>(t)) % inputs.size();
        EXPECT_TRUE(SameBytes(mine[j], serial[k]))
            << "thread " << t << " call " << j;
      }
    }
  }
}

}  // namespace
}  // namespace mhbench::nn
