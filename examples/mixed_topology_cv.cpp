// Domain example 4: the mixed-architecture federation from the paper's
// introduction — "an FL system may consist of diverse model architectures,
// such as ResNet, EfficientNet, MobileNet, and GoogleLeNet" (Section III).
//
// Federates all four CV families with both topology-level algorithms and
// compares committee/server accuracy and per-architecture behaviour.
//
//   $ ./examples/mixed_topology_cv
#include <cstdio>
#include <map>

#include "algorithms/fedet.h"
#include "algorithms/fedproto.h"
#include "core/table.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"

int main() {
  using namespace mhbench;

  data::TaskConfig tcfg;
  tcfg.train_samples = 400;
  tcfg.test_samples = 160;
  tcfg.num_clients = 8;
  const data::Task task = data::MakeTask("cifar10", tcfg);

  const std::vector<models::FamilyPtr> families =
      models::MakeMixedCvFamilies(task.train.num_classes);
  std::puts("Mixed CV architecture pool:");
  Rng probe(1);
  for (std::size_t a = 0; a < families.size(); ++a) {
    auto built = families[a]->Build(models::BuildSpec{}, probe);
    std::printf("  arch %zu: %-18s %6zu params\n", a,
                families[a]->name().c_str(), built.net->NumParams());
  }

  // Every client keeps one architecture (two clients per family).
  std::vector<fl::ClientAssignment> assignments(8);
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    assignments[i].arch_index = static_cast<int>(i % families.size());
  }

  fl::FlConfig cfg;
  cfg.rounds = 16;
  cfg.sample_fraction = 0.5;
  cfg.eval_every = 4;

  AsciiTable table({"Algorithm", "Global accuracy", "Stability (var)"});
  {
    algorithms::FedProto fedproto(families, /*seed=*/7);
    fl::FlEngine engine(task, cfg, assignments, fedproto);
    const auto r = engine.Run();
    table.AddRow({"fedproto", AsciiTable::Num(r.final_accuracy, 3),
                  AsciiTable::Num(r.StabilityVariance(), 4)});
  }
  {
    algorithms::FedEt fedet(families, /*seed=*/7);
    fl::FlEngine engine(task, cfg, assignments, fedet);
    const auto r = engine.Run();
    table.AddRow({"fedet", AsciiTable::Num(r.final_accuracy, 3),
                  AsciiTable::Num(r.StabilityVariance(), 4)});
  }
  std::puts("");
  std::fputs(table.Render().c_str(), stdout);
  std::puts(
      "\nFedProto keeps all four architectures fully personal and only\n"
      "exchanges class prototypes; Fed-ET distills the four per-family\n"
      "group models into the largest architecture on a public split.");
  return 0;
}
