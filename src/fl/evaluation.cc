#include "fl/evaluation.h"

#include <numeric>

#include "core/error.h"
#include "nn/loss.h"
#include "obs/profile.h"

namespace mhbench::fl {

double EvaluateAccuracy(const LogitsFn& logits_fn,
                        const data::Dataset& dataset, int max_samples,
                        int batch_size, core::ThreadPool* pool) {
  MHB_CHECK(!dataset.empty());
  MHB_CHECK_GT(batch_size, 0);
  const int n = max_samples > 0
                    ? std::min<int>(max_samples,
                                    static_cast<int>(dataset.size()))
                    : static_cast<int>(dataset.size());
  const int batches = (n + batch_size - 1) / batch_size;
  std::vector<int> correct(static_cast<std::size_t>(batches), 0);
  obs::Profiler* const prof = obs::Profiler::Current();
  core::ParallelFor(pool, correct.size(), [&](std::size_t b) {
    obs::ProfilerThreadGuard profiler_guard(prof);
    const int start = static_cast<int>(b) * batch_size;
    const int end = std::min(n, start + batch_size);
    std::vector<int> idx(static_cast<std::size_t>(end - start));
    std::iota(idx.begin(), idx.end(), start);
    const std::vector<int> y = dataset.GatherLabels(idx);
    correct[b] = nn::CountCorrect(logits_fn(dataset.GatherFeatures(idx)), y);
  });
  return static_cast<double>(
             std::accumulate(correct.begin(), correct.end(), 0)) /
         n;
}

}  // namespace mhbench::fl
