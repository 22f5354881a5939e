// Reproduces Figure 7: constraint combinations on CIFAR-100 —
// communication+memory and computation+communication+memory limited MHFL,
// compared against the single-constraint accuracies.
#include "core/table.h"
#include "suite_main.h"

int main() {
  using namespace mhbench;
  std::puts("Figure 7: analysis of constraint combinations (CIFAR-100)\n");

  std::vector<metrics::MetricBundle> all;
  for (const std::string constraint :
       {"communication", "memory", "comm+mem", "comp+comm+mem"}) {
    bench_support::SuiteOptions options;
    options.constraint = constraint;
    options.task = "cifar100";
    const auto bundles =
        bench_support::RunSuite(benchmain::MhflAlgorithms(), options);
    std::fputs(metrics::RenderMetricPanel("cifar100 / " + constraint, bundles)
                   .c_str(),
               stdout);
    all.insert(all.end(), bundles.begin(), bundles.end());
  }

  // Summary: accuracy per algorithm across the combination ladder.
  AsciiTable summary({"Algorithm", "communication", "memory", "comm+mem",
                      "comp+comm+mem"});
  for (const auto& name : benchmain::MhflAlgorithms()) {
    std::vector<std::string> row = {name};
    for (const std::string constraint :
         {"communication", "memory", "comm+mem", "comp+comm+mem"}) {
      for (const auto& b : all) {
        if (b.algorithm == name && b.constraint == constraint) {
          row.push_back(AsciiTable::Num(b.global_accuracy, 3));
        }
      }
    }
    summary.AddRow(row);
  }
  std::puts("-- accuracy vs constraint combination --");
  std::fputs(summary.Render().c_str(), stdout);

  benchmain::WriteFigureCsv("fig7_combinations", all);
  return 0;
}
