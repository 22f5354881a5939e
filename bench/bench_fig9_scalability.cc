// Reproduces Figure 9: scalability — convergence accuracy and speed of a
// representative algorithm per heterogeneity level as the client population
// grows, under the memory-limited setting on CIFAR-100.
#include <map>

#include "core/table.h"
#include "suite_main.h"

int main() {
  using namespace mhbench;
  std::puts("Figure 9: scalability analysis (memory-limited, CIFAR-100)\n");

  const std::vector<int> client_counts = {6, 10, 16, 24};
  const std::vector<std::string> algorithms = {"sheterofl", "fedrolex",
                                               "depthfl", "fedepth"};

  std::vector<metrics::MetricBundle> all;
  AsciiTable summary({"Algorithm", "clients=6", "clients=10", "clients=16",
                      "clients=24"});
  std::map<std::string, std::vector<std::string>> rows;
  for (int clients : client_counts) {
    bench_support::SuiteOptions options;
    options.constraint = "memory";
    options.task = "cifar100";
    options.preset.clients = clients;
    // Keep per-client data constant as the population scales.
    options.preset.train_samples = clients * 40;
    const auto bundles = bench_support::RunSuite(algorithms, options);
    for (const auto& b : bundles) {
      rows[b.algorithm].push_back(AsciiTable::Num(b.global_accuracy, 3));
      all.push_back(b);
    }
    std::printf("[clients=%d done]\n", clients);
  }
  for (const auto& name : algorithms) {
    std::vector<std::string> row = {name};
    for (const auto& cell : rows[name]) row.push_back(cell);
    summary.AddRow(row);
  }
  std::puts("-- final accuracy vs client count --");
  std::fputs(summary.Render().c_str(), stdout);

  benchmain::WriteFigureCsv("fig9_scalability", all);
  return 0;
}
