// Liveness gate over the engine's scheduling options: every algorithm runs
// at two threads on a tiny task with one option that changes how work is
// scheduled switched on at a time.  The assertions are only "finishes" and
// "every accuracy is finite"; bit-identity is the determinism suites' job.
// A nested-parallelism deadlock (say, a lock held across a fan-out) shows
// up here as a hang, which the ctest TIMEOUT on this binary turns into a
// failure.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/journal.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::fl {
namespace {

enum class Option { kThreadedGemm, kCheckpointEvery, kDetAudit, kTelemetry };

std::string OptionName(Option o) {
  switch (o) {
    case Option::kThreadedGemm:
      return "threaded_gemm";
    case Option::kCheckpointEvery:
      return "checkpoint_every";
    case Option::kDetAudit:
      return "det_audit";
    case Option::kTelemetry:
      return "telemetry";
  }
  return "?";
}

class OptionMatrixTest : public ::testing::TestWithParam<Option> {};

INSTANTIATE_TEST_SUITE_P(
    Options, OptionMatrixTest,
    ::testing::Values(Option::kThreadedGemm, Option::kCheckpointEvery,
                      Option::kDetAudit, Option::kTelemetry),
    [](const ::testing::TestParamInfo<Option>& info) {
      return OptionName(info.param);
    });

void ExpectFinite(const RunResult& r) {
  EXPECT_TRUE(std::isfinite(r.final_accuracy));
  for (const auto& rec : r.curve) EXPECT_TRUE(std::isfinite(rec.global_acc));
  EXPECT_FALSE(r.client_accuracies.empty());
  for (double a : r.client_accuracies) EXPECT_TRUE(std::isfinite(a));
}

TEST_P(OptionMatrixTest, EveryAlgorithmFinishesAtTwoThreads) {
  const Option option = GetParam();
  data::TaskConfig tcfg;
  tcfg.train_samples = 64;
  tcfg.test_samples = 72;  // two eval batches, so global eval fans out
  tcfg.num_clients = 4;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const auto tm = models::MakeTaskModels("cifar10");

  for (const auto& info : algorithms::AllAlgorithms()) {
    SCOPED_TRACE(info.name + " with " + OptionName(option));
    auto alg = algorithms::MakeAlgorithm(info.name, tm);
    const auto dir = testsupport::MakeTempDir();

    FlConfig cfg;
    cfg.rounds = 2;
    cfg.sample_fraction = 1.0;
    cfg.eval_every = 1;
    cfg.eval_max_samples = 72;
    cfg.stability_max_samples = 8;
    cfg.num_threads = 2;

    obs::Registry registry;
    obs::Profiler profiler;
    obs::DetAuditor audit;
    std::unique_ptr<obs::ClientJournalWriter> journal;
    switch (option) {
      case Option::kThreadedGemm:
        cfg.threaded_gemm = true;
        break;
      case Option::kCheckpointEvery:
        cfg.checkpoint_every = 1;
        cfg.checkpoint_dir = dir.path;
        break;
      case Option::kDetAudit:
        cfg.obs.registry = &registry;
        cfg.obs.det_audit = &audit;
        break;
      case Option::kTelemetry:
        cfg.obs.registry = &registry;
        cfg.obs.profiler = &profiler;
        journal = std::make_unique<obs::ClientJournalWriter>(
            dir.File("clients.mhbj"), obs::ClientJournalWriter::Options{});
        registry.SetClientRowSink(
            [&journal](std::vector<obs::Registry::ClientRow>&& rows) {
              journal->Append(rows);
            });
        break;
    }

    std::vector<ClientAssignment> assign =
        UniformCapacityAssignments(tcfg.num_clients, {0.25, 0.5, 1.0});
    for (int i = 0; i < tcfg.num_clients; ++i) {
      assign[static_cast<std::size_t>(i)].arch_index = i;
    }
    FlEngine engine(task, cfg, std::move(assign), *alg);
    const RunResult result = engine.Run();
    ExpectFinite(result);
    EXPECT_EQ(result.curve.size(), 2u);
    if (option == Option::kDetAudit) {
      EXPECT_EQ(audit.rounds().size(), 2u);
    }
    if (option == Option::kTelemetry) {
      registry.SetClientRowSink({});
      EXPECT_GT(journal->records_written(), 0);
    }
  }
}

}  // namespace
}  // namespace mhbench::fl
