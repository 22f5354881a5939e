#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>

#include "obs/trace.h"  // JsonEscape
#include "tensor/gemm.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace mhbench::obs {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* InternName(const std::string& name) {
  struct Names {
    core::Mutex mu;
    // Set nodes never move, so each c_str() stays valid.
    std::set<std::string> names MHB_GUARDED_BY(mu);
  };
  // Never destroyed: scope names must outlive every profiler, statics
  // included.
  static Names* const table = new Names;
  core::MutexLock lock(table->mu);
  return table->names.insert(name).first->c_str();
}

void ProfileScope::Enter(Profiler* p, const char* name) {
  profiler_ = p;
  sink_ = p->ThreadSink();
  prev_ = sink_->current;

  // Find-or-create the child of the current node with this name.  Pointer
  // compare: literals and interned names are canonical, so identical names
  // share an address within one binary.
  std::uint32_t found = 0;
  for (std::uint32_t c = sink_->nodes[prev_].first_child; c != 0;
       c = sink_->nodes[c].next_sibling) {
    if (sink_->nodes[c].name == name) {
      found = c;
      break;
    }
  }
  if (found == 0) {
    Profiler::Node node;
    node.name = name;
    node.parent = prev_;
    node.next_sibling = sink_->nodes[prev_].first_child;
    found = static_cast<std::uint32_t>(sink_->nodes.size());
    sink_->nodes.push_back(node);
    sink_->nodes[prev_].first_child = found;
  }
  node_ = found;
  sink_->current = node_;

  kernels::ScratchArena& arena = kernels::ThreadScratch();
  saved_watermark_ =
      arena.ExchangeWatermark(arena.in_use_bytes() / sizeof(float));
  flops0_ = kernels::ThreadGemmFlops();
  allocs0_ = Tensor::ThreadAllocStats().heap_allocs;
  start_ns_ = NowNs();
}

void ProfileScope::Leave() {
  const std::int64_t dt = NowNs() - start_ns_;
  const std::int64_t flops =
      static_cast<std::int64_t>(kernels::ThreadGemmFlops() - flops0_);
  const std::int64_t allocs = static_cast<std::int64_t>(
      Tensor::ThreadAllocStats().heap_allocs - allocs0_);

  kernels::ScratchArena& arena = kernels::ThreadScratch();
  const std::size_t scope_peak_floats = arena.watermark_floats();
  // The parent scope's peak must cover everything seen inside this one.
  arena.ExchangeWatermark(std::max(saved_watermark_, scope_peak_floats));
  const std::int64_t scope_peak_bytes =
      static_cast<std::int64_t>(scope_peak_floats * sizeof(float));

  Profiler::Node& node = sink_->nodes[node_];
  node.count += 1;
  node.wall_ns += dt;
  node.gemm_flops += flops;
  node.heap_allocs += allocs;
  node.scratch_peak_bytes = std::max(node.scratch_peak_bytes,
                                     scope_peak_bytes);
  sink_->nodes[prev_].child_wall_ns += dt;
  sink_->current = prev_;
}

namespace {

// Merges one sink subtree into the deterministic (name-sorted) build map.
struct BuildNode {
  Profiler::TreeNode stats;
  std::map<std::string, BuildNode> children;
};

void MergeInto(const Profiler::Sink& sink, std::uint32_t idx,
               BuildNode* out) {
  const Profiler::Node& n = sink.nodes[idx];
  out->stats.count += n.count;
  out->stats.wall_ns += n.wall_ns;
  out->stats.child_wall_ns += n.child_wall_ns;
  out->stats.gemm_flops += n.gemm_flops;
  out->stats.heap_allocs += n.heap_allocs;
  out->stats.scratch_peak_bytes =
      std::max(out->stats.scratch_peak_bytes, n.scratch_peak_bytes);
  for (std::uint32_t c = n.first_child; c != 0;
       c = sink.nodes[c].next_sibling) {
    MergeInto(sink, c, &out->children[sink.nodes[c].name]);
  }
}

Profiler::TreeNode Finalize(const std::string& name, const BuildNode& b) {
  Profiler::TreeNode out = b.stats;
  out.name = name;
  out.children.reserve(b.children.size());
  for (const auto& [child_name, child] : b.children) {
    out.children.push_back(Finalize(child_name, child));
  }
  return out;
}

void AccumulateTotals(const Profiler::TreeNode& node,
                      std::map<std::string, Profiler::OpStats>* out) {
  if (!node.name.empty()) {
    Profiler::OpStats& s = (*out)[node.name];
    s.count += node.count;
    s.wall_ns += node.wall_ns;
    s.gemm_flops += node.gemm_flops;
    s.heap_allocs += node.heap_allocs;
    s.scratch_peak_bytes =
        std::max(s.scratch_peak_bytes, node.scratch_peak_bytes);
  }
  for (const auto& c : node.children) AccumulateTotals(c, out);
}

void EmitTreeRows(const Profiler::TreeNode& node, const std::string& path,
                  int depth, bool* first, std::ostringstream* out) {
  if (!node.name.empty()) {
    if (!*first) *out << ",\n";
    *first = false;
    const std::int64_t self_ns = node.wall_ns - node.child_wall_ns;
    *out << "    {\"path\":\"" << JsonEscape(path) << "\",\"name\":\""
         << JsonEscape(node.name) << "\",\"depth\":" << depth
         << ",\"count\":" << node.count
         << ",\"wall_us\":" << node.wall_ns / 1000
         << ",\"self_wall_us\":" << self_ns / 1000
         << ",\"gemm_flops\":" << node.gemm_flops
         << ",\"heap_allocs\":" << node.heap_allocs
         << ",\"scratch_peak_bytes\":" << node.scratch_peak_bytes << "}";
  }
  for (const auto& c : node.children) {
    const std::string child_path =
        node.name.empty() ? c.name : path + "/" + c.name;
    EmitTreeRows(c, child_path, node.name.empty() ? 0 : depth + 1, first,
                 out);
  }
}

}  // namespace

Profiler::TreeNode Profiler::MergedTree() const {
  BuildNode root;
  sinks_.ForEach([&root](std::size_t, const Sink& sink) {
    MergeInto(sink, 0, &root);
  });
  // The root aggregates sink roots; its own stats stay zero except the
  // child_wall_ns the sinks accumulated, which is meaningless across
  // threads — clear it.
  TreeNode out = Finalize("", root);
  out.count = 0;
  out.wall_ns = 0;
  out.child_wall_ns = 0;
  return out;
}

std::map<std::string, Profiler::OpStats> Profiler::TotalsByName() const {
  std::map<std::string, OpStats> out;
  AccumulateTotals(MergedTree(), &out);
  return out;
}

std::string Profiler::ToJson() const {
  const TreeNode tree = MergedTree();
  const auto totals = TotalsByName();
  std::ostringstream out;
  out << "{\n  \"op_totals\": {";
  bool first = true;
  for (const auto& [name, s] : totals) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << JsonEscape(name) << "\": {\"count\":" << s.count
        << ",\"wall_us\":" << s.wall_ns / 1000
        << ",\"gemm_flops\":" << s.gemm_flops
        << ",\"heap_allocs\":" << s.heap_allocs
        << ",\"scratch_peak_bytes\":" << s.scratch_peak_bytes << "}";
  }
  out << "\n  },\n  \"tree\": [\n";
  std::ostringstream rows;
  bool first_row = true;
  EmitTreeRows(tree, "", 0, &first_row, &rows);
  out << rows.str() << "\n  ]\n}\n";
  return out.str();
}

}  // namespace mhbench::obs
