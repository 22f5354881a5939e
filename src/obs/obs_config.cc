#include "obs/obs_config.h"

#include <atomic>

#include "core/thread_pool.h"

namespace mhbench::obs {

namespace {

constinit const ObsConfig kNoCollectors{};

struct CachedSink {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* sink = nullptr;
};
// A thread touches a handful of collectors over its lifetime, so a flat
// vector beats a map; the newest entries are the likeliest hits.
thread_local std::vector<CachedSink> tl_sinks;

}  // namespace

const ObsConfig& CurrentObs() {
  const void* context = core::ThreadContext();
  return context != nullptr ? *static_cast<const ObsConfig*>(context)
                            : kNoCollectors;
}

ObsScope::ObsScope(const ObsConfig* obs)
    : prev_(core::ExchangeThreadContext(obs)) {}

ObsScope::~ObsScope() { core::ExchangeThreadContext(prev_); }

namespace internal {

std::uint64_t NextSinksGeneration() {
  static std::atomic<std::uint64_t> g{1};
  return g.fetch_add(1, std::memory_order_relaxed);
}

void* FindThreadSink(const void* owner, std::uint64_t generation) {
  for (auto it = tl_sinks.rbegin(); it != tl_sinks.rend(); ++it) {
    if (it->owner == owner && it->generation == generation) return it->sink;
  }
  return nullptr;
}

void RememberThreadSink(const void* owner, std::uint64_t generation,
                        void* sink) {
  tl_sinks.push_back({owner, generation, sink});
}

}  // namespace internal

}  // namespace mhbench::obs
