// Model evaluation helpers.
#pragma once

#include <functional>

#include "core/thread_pool.h"
#include "data/dataset.h"

namespace mhbench::fl {

// Signature: logits for a feature batch (eval mode).
using LogitsFn = std::function<Tensor(const Tensor&)>;

inline constexpr int kEvalBatchSize = 64;

// Accuracy of `logits_fn` on up to `max_samples` of `dataset` (deterministic
// prefix; the generators already shuffle), evaluated in batches of
// `batch_size`.  With a pool, batches run concurrently (`logits_fn` must
// then be safe to call from several threads); the per-batch correct counts
// are integers, so the result is exact and the same at any thread count.
// The batch boundaries never depend on the pool, which matters to models
// that normalize with batch statistics.
double EvaluateAccuracy(const LogitsFn& logits_fn,
                        const data::Dataset& dataset, int max_samples = 0,
                        int batch_size = kEvalBatchSize,
                        core::ThreadPool* pool = nullptr);

}  // namespace mhbench::fl
