// Reproduces Figure 8: non-IID performance under the computation-limited
// scenario, with Dirichlet alpha = 0.5 and 5 (plus the IID reference).
#include "core/table.h"
#include "suite_main.h"

int main() {
  using namespace mhbench;
  std::puts(
      "Figure 8: non-IID (Dirichlet) performance, computation-limited\n");

  std::vector<metrics::MetricBundle> all;
  for (const std::string task : {"cifar10", "cifar100"}) {
    for (double alpha : {0.0, 5.0, 0.5}) {  // 0 = IID reference
      bench_support::SuiteOptions options;
      options.constraint = "computation";
      options.task = task;
      options.dirichlet_alpha = alpha;
      const auto bundles =
          bench_support::RunSuite(benchmain::MhflAlgorithms(), options);
      const std::string label =
          task + (alpha > 0 ? " / alpha=" + AsciiTable::Num(alpha, 1)
                            : " / iid");
      std::fputs(metrics::RenderMetricPanel(label, bundles).c_str(), stdout);
      for (auto b : bundles) {
        b.constraint = "computation" + std::string(alpha > 0 ? "-noniid" : "");
        b.task = label;
        all.push_back(std::move(b));
      }
    }
  }

  benchmain::WriteFigureCsv("fig8_noniid", all);
  return 0;
}
