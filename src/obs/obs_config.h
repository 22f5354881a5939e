// The run's collectors and how instrumented code reaches them.
//
// An ObsConfig names the collectors of one run; all pointers are
// non-owning and may be null, and a null field disables that collector.
// FlEngine::Run installs its config once, with an ObsScope on the calling
// thread, and core::ParallelFor hands that thread's context to every task
// it fans out, so Span, ProfileScope, the snapshot file I/O and the
// algorithms all read their collector from CurrentObs() on whichever
// thread they run.  A thread with nothing installed sees an all-null
// config, and instrumentation there reduces to untaken branches.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace mhbench::obs {

class Tracer;
class Registry;
class Profiler;
class DetAuditor;

struct ObsConfig {
  // Wall-clock span tracing (round / dispatch / per-client / merge / eval),
  // plus the simulated-clock track the engine records beside it.
  Tracer* tracer = nullptr;
  // Counter + gauge + histogram collection (bytes, FLOPs, drops, latency
  // distributions, pool utilization).
  Registry* registry = nullptr;
  // Per-op profiling (layer fwd/bwd wall time, FLOPs, scratch, allocs).
  Profiler* profiler = nullptr;
  // Determinism divergence auditor (obs/det_audit.h): the engine records a
  // per-component barrier hash chain at every round barrier.  Read-only
  // over engine state, so attaching it cannot change results
  // (DESIGN.md §5k).
  DetAuditor* det_audit = nullptr;
};

// The calling thread's collectors: the config of the innermost live
// ObsScope on this thread, or on the thread whose core::ParallelFor runs
// the current task.  All-null when none is installed.
const ObsConfig& CurrentObs();

// Installs `obs` as the calling thread's context for the scope's lifetime
// and restores the previous one on destruction.  `obs` must outlive the
// scope; null installs the all-null config.
class ObsScope {
 public:
  explicit ObsScope(const ObsConfig* obs);
  ~ObsScope();

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  const void* prev_;
};

namespace internal {
std::uint64_t NextSinksGeneration();
// The sink the calling thread registered under (owner, generation), or null.
void* FindThreadSink(const void* owner, std::uint64_t generation);
void RememberThreadSink(const void* owner, std::uint64_t generation,
                        void* sink);
}  // namespace internal

// A collector's per-thread sinks: each recording thread gets its own T on
// first use and appends to it without a lock from then on.  One
// thread-local cache, keyed by (collector, generation), serves every
// collector; the generation keeps a collector built at a dead one's
// address from inheriting its cached sinks.
template <typename T>
class ThreadSinks {
 public:
  ThreadSinks() : generation_(internal::NextSinksGeneration()) {}

  ThreadSinks(const ThreadSinks&) = delete;
  ThreadSinks& operator=(const ThreadSinks&) = delete;

  // The calling thread's sink; registering it is the only locked step.
  T& Local() MHB_EXCLUDES(mu_) {
    if (void* cached = internal::FindThreadSink(this, generation_)) {
      return *static_cast<T*>(cached);
    }
    auto sink = std::make_unique<T>();
    T* raw = sink.get();
    {
      core::MutexLock lock(mu_);
      sinks_.push_back(std::move(sink));
    }
    internal::RememberThreadSink(this, generation_, raw);
    return *raw;
  }

  // Calls fn(index, sink) for every sink in registration order.  Sink
  // contents belong to their thread, so call it only where no thread
  // records (serial phases, after the traced workload).
  template <typename Fn>
  void ForEach(Fn&& fn) const MHB_EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      fn(i, static_cast<const T&>(*sinks_[i]));
    }
  }

 private:
  const std::uint64_t generation_;
  mutable core::Mutex mu_;
  std::vector<std::unique_ptr<T>> sinks_ MHB_GUARDED_BY(mu_);
};

}  // namespace mhbench::obs
