// Cross-module consistency: the data generators' sample geometry must match
// the model families' expected input shapes, and class counts must agree
// everywhere (zoo, tasks, cost descriptors).
#include <gtest/gtest.h>

#include "data/tasks.h"
#include "device/cost_model.h"
#include "models/zoo.h"

namespace mhbench {
namespace {

class GeometryTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllTasks, GeometryTest,
                         ::testing::ValuesIn(models::AllTaskNames()));

TEST_P(GeometryTest, SampleShapeMatchesEveryFamily) {
  data::TaskConfig cfg;
  cfg.train_samples = 40;
  cfg.test_samples = 20;
  cfg.num_clients = 4;
  const data::Task task = data::MakeTask(GetParam(), cfg);
  const models::TaskModels tm = models::MakeTaskModels(GetParam());

  EXPECT_EQ(task.train.sample_shape(), tm.primary->sample_shape());
  for (const auto& fam : tm.topology) {
    EXPECT_EQ(task.train.sample_shape(), fam->sample_shape())
        << fam->name();
  }
}

TEST_P(GeometryTest, ClassCountsAgree) {
  data::TaskConfig cfg;
  cfg.train_samples = 40;
  cfg.test_samples = 20;
  cfg.num_clients = 4;
  const data::Task task = data::MakeTask(GetParam(), cfg);
  const models::TaskModels tm = models::MakeTaskModels(GetParam());
  EXPECT_EQ(task.train.num_classes, models::TaskNumClasses(GetParam()));
  EXPECT_EQ(tm.primary->num_classes(), task.train.num_classes);
  for (const auto& fam : tm.topology) {
    EXPECT_EQ(fam->num_classes(), task.train.num_classes) << fam->name();
  }
}

TEST_P(GeometryTest, ModelsForwardRealTaskBatches) {
  data::TaskConfig cfg;
  cfg.train_samples = 40;
  cfg.test_samples = 20;
  cfg.num_clients = 4;
  const data::Task task = data::MakeTask(GetParam(), cfg);
  const models::TaskModels tm = models::MakeTaskModels(GetParam());
  const std::vector<int> idx = {0, 1, 2};
  const Tensor x = task.train.GatherFeatures(idx);
  Rng rng(1);
  for (const auto& fam : tm.topology) {
    auto built = fam->Build(models::BuildSpec{}, rng);
    const Tensor logits = built.net->Infer(x, nn::NormStats::kRunning);
    EXPECT_EQ(logits.shape(), Shape({3, task.train.num_classes}))
        << fam->name();
  }
}

TEST_P(GeometryTest, CostDescriptorTopologyCountMatchesZoo) {
  // The paper-scale cost descriptors must mirror the sim-scale zoo's
  // topology family size — constraint builders index both with the same
  // arch_index.
  const models::TaskModels tm = models::MakeTaskModels(GetParam());
  const device::PaperTaskDescs descs = device::PaperDescsForTask(GetParam());
  EXPECT_EQ(tm.topology.size(), descs.topology.size());
}

TEST_P(GeometryTest, TopologyFamilyParamOrderingMatchesCostOrdering) {
  // Smallest-first in the zoo must correspond to smallest-first in the
  // paper-scale descriptors, so "largest arch that fits" agrees.
  const models::TaskModels tm = models::MakeTaskModels(GetParam());
  const device::PaperTaskDescs descs = device::PaperDescsForTask(GetParam());
  Rng rng(2);
  double prev_sim = 0, prev_paper = 0;
  for (std::size_t a = 0; a < tm.topology.size(); ++a) {
    const double sim =
        static_cast<double>(tm.topology[a]->Build(models::BuildSpec{}, rng)
                                .net->NumParams());
    const double paper =
        device::ComputeStats(descs.topology[a], device::ScaleAxis::kWidth,
                             1.0)
            .params;
    EXPECT_GE(sim, prev_sim) << GetParam() << " arch " << a;
    EXPECT_GE(paper, prev_paper) << GetParam() << " arch " << a;
    prev_sim = sim;
    prev_paper = paper;
  }
}

}  // namespace
}  // namespace mhbench
