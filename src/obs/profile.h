// Scoped per-op profiler: attributes wall time, GEMM FLOPs, scratch-arena
// peak bytes, and tensor heap allocations to a tree of named scopes
// (layer forward/backward, model blocks, train/aggregate phases).
//
// Design mirrors the Tracer/Registry contract:
//   - Strictly no-op when disabled.  A ProfileScope reads the profiler of
//     the calling thread's context (obs/obs_config.h: FlEngine::Run
//     installs it, core::ParallelFor hands it to every task); when that is
//     null the scope is a branch — no clock read, no allocation.  The conv
//     fwd+bwd zero-allocation test runs with the profiler off and must
//     keep passing unmodified.
//   - Per-thread sinks, merged serially.  Each thread grows a private node
//     tree (find-or-create child by name-pointer compare — O(children),
//     no hashing, no locks after the thread's first scope).  Export merges
//     the per-thread trees by name at a serial point.
//   - Thread-count-independent attribution.  Every client runs wholly on
//     one thread with a deterministic scope structure, and merge sums
//     commute, so per-op counts and gemm_flops totals are bit-identical
//     across --threads 1/2/4.  Wall time is the only field that isn't.
//
// Scope names must either be string literals or come from InternName
// (both live as long as the process) — the hot path compares name
// POINTERS, not contents.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs_config.h"

namespace mhbench::obs {

// Returns a pointer that lives as long as the process for a dynamic scope
// name (e.g. a model's block name).  The same string always returns the
// same pointer, so interned names merge with literal names by content at
// export and compare by pointer on the hot path.  Takes a lock; intern
// once when the named thing is built, not per step.
const char* InternName(const std::string& name);

class Profiler {
 public:
  // ---- Merged views (serial phases only; merges all thread sinks) ----

  struct TreeNode {
    std::string name;
    std::int64_t count = 0;
    std::int64_t wall_ns = 0;        // inclusive
    std::int64_t child_wall_ns = 0;  // part of wall_ns spent in children
    std::int64_t gemm_flops = 0;
    std::int64_t heap_allocs = 0;
    std::int64_t scratch_peak_bytes = 0;  // max over entries
    std::vector<TreeNode> children;       // sorted by name (deterministic)
  };
  // Root node ("" name, zero stats) holding every top-level scope.
  TreeNode MergedTree() const;

  struct OpStats {
    std::int64_t count = 0;
    std::int64_t wall_ns = 0;
    std::int64_t gemm_flops = 0;
    std::int64_t heap_allocs = 0;
    std::int64_t scratch_peak_bytes = 0;  // max
  };
  // Flat per-name totals aggregated over every tree position.
  std::map<std::string, OpStats> TotalsByName() const;

  // profile.json: {"op_totals": {...}, "tree": [flame-style rows]}.
  std::string ToJson() const;

  // ---- Hot path (called by ProfileScope; not for direct use) ----

  struct Node {
    const char* name = nullptr;
    std::uint32_t parent = 0;
    std::uint32_t first_child = 0;   // 0 = none (node 0 is the root)
    std::uint32_t next_sibling = 0;  // 0 = none
    std::int64_t count = 0;
    std::int64_t wall_ns = 0;
    std::int64_t child_wall_ns = 0;
    std::int64_t gemm_flops = 0;
    std::int64_t heap_allocs = 0;
    std::int64_t scratch_peak_bytes = 0;
  };
  struct Sink {
    std::vector<Node> nodes;       // nodes[0] is the root
    std::uint32_t current = 0;     // innermost open scope
    Sink() : nodes(1) {}
  };

  Sink* ThreadSink() { return &sinks_.Local(); }

 private:
  ThreadSinks<Sink> sinks_;
};

// RAII scope on the context's profiler.  `name` must be a string literal
// or interned.  Nesting must be strict (LIFO), which C++ scoping
// guarantees.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    if (Profiler* p = CurrentObs().profiler) Enter(p, name);
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) Leave();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  void Enter(Profiler* p, const char* name);
  void Leave();

  Profiler* profiler_ = nullptr;
  Profiler::Sink* sink_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint32_t prev_ = 0;
  std::int64_t start_ns_ = 0;
  std::uint64_t flops0_ = 0;
  std::uint64_t allocs0_ = 0;
  std::size_t saved_watermark_ = 0;
};

}  // namespace mhbench::obs
