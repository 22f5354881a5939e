#include "constraints/assignment.h"

#include <algorithm>

#include "core/error.h"
#include "device/calibration.h"
#include "device/tier.h"

namespace mhbench::constraints {
namespace {

device::DeviceProfile ProfileFor(const device::ClientDevice& dev) {
  device::DeviceProfile p;
  p.name = "fleet-client";
  p.gflops = dev.gflops;
  p.bandwidth_mbps = dev.bandwidth_mbps;
  p.memory_mb = dev.memory_mb;
  p.has_gpu = dev.has_gpu;
  return p;
}

// Candidate variants for the algorithm (ratios for width/depth methods,
// architectures for topology methods), ascending by parameter count.
struct Candidate {
  double ratio = 1.0;
  int arch_index = 0;
  const device::PaperModelDesc* desc = nullptr;
};

std::vector<Candidate> Candidates(const std::string& algorithm,
                                  const device::PaperTaskDescs& descs,
                                  const std::vector<double>& ladder) {
  std::vector<Candidate> out;
  if (device::AxisOf(algorithm) == device::ScaleAxis::kFull) {
    for (std::size_t a = 0; a < descs.topology.size(); ++a) {
      out.push_back({1.0, static_cast<int>(a), &descs.topology[a]});
    }
  } else {
    std::vector<double> sorted = ladder;
    std::sort(sorted.begin(), sorted.end());
    for (double r : sorted) {
      out.push_back({r, 0, &descs.primary});
    }
  }
  return out;
}

}  // namespace

ConstraintFlags ParseConstraintCase(const std::string& name) {
  ConstraintFlags flags;
  if (name == "computation") {
    flags.computation = true;
  } else if (name == "communication") {
    flags.communication = true;
  } else if (name == "memory") {
    flags.memory = true;
  } else if (name == "comm+mem") {
    flags.communication = flags.memory = true;
  } else if (name == "comp+comm+mem") {
    flags.computation = flags.communication = flags.memory = true;
  } else {
    throw Error("unknown constraint case '" + name +
                "': expected computation, communication, memory, comm+mem "
                "or comp+comm+mem");
  }
  return flags;
}

BuiltAssignments BuildConstrained(const std::string& algorithm,
                                  const std::string& task_name,
                                  const device::Fleet& fleet,
                                  const ConstraintFlags& flags,
                                  const ConstraintOptions& options) {
  MHB_CHECK(!fleet.empty());
  MHB_CHECK(flags.computation || flags.communication || flags.memory)
      << "at least one constraint must be active";
  const device::PaperTaskDescs descs = device::PaperDescsForTask(task_name);
  const std::vector<Candidate> candidates =
      Candidates(algorithm, descs, options.ratio_ladder);
  MHB_CHECK(!candidates.empty());

  // Resources a case does not constrain are held identical across clients.
  device::DeviceProfile fixed;
  fixed.name = "fixed-reference";
  fixed.gflops =
      device::DeviceGflops("jetson-nano") * options.fixed_gflops_scale;
  fixed.bandwidth_mbps = options.fixed_bandwidth_mbps;

  BuiltAssignments out;
  out.comm_budget_s = flags.communication ? options.comm_budget_s : 0.0;

  // Computation deadline: full-model time on the q-quantile fastest device.
  if (flags.computation) {
    const Candidate& largest = candidates.back();
    device::CostModel cm(*largest.desc);
    std::vector<double> times;
    times.reserve(fleet.size());
    for (const auto& dev : fleet) {
      times.push_back(
          cm.Cost(algorithm, largest.ratio, ProfileFor(dev)).train_time_s);
    }
    std::sort(times.begin(), times.end());
    const auto q = static_cast<std::size_t>(
        options.deadline_quantile * static_cast<double>(times.size() - 1));
    out.compute_deadline_s = times[q];
  }

  out.assignments.reserve(fleet.size());
  for (const auto& dev : fleet) {
    const device::DeviceProfile own = ProfileFor(dev);
    // Effective profile per resource: constrained resources use the
    // client's real capability, unconstrained ones the fixed reference.
    device::DeviceProfile eff = fixed;
    if (flags.computation) eff.gflops = own.gflops;
    if (flags.communication) eff.bandwidth_mbps = own.bandwidth_mbps;
    const double mem_budget = flags.memory ? own.memory_mb : 1e12;

    const Candidate* chosen = nullptr;
    device::RoundCost chosen_cost;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      device::CostModel cm(*it->desc);
      const device::RoundCost cost = cm.Cost(algorithm, it->ratio, eff);
      const bool comp_ok =
          !flags.computation || cost.train_time_s <= out.compute_deadline_s;
      const bool comm_ok =
          !flags.communication || cost.comm_time_s <= options.comm_budget_s;
      const bool mem_ok = cost.memory_mb <= mem_budget;
      if (comp_ok && comm_ok && mem_ok) {
        chosen = &*it;
        chosen_cost = cost;
        break;
      }
    }
    if (chosen == nullptr) {
      // Nothing fits: fall back to the smallest candidate (the device
      // participates with the minimum model, as real deployments do).
      chosen = &candidates.front();
      device::CostModel cm(*chosen->desc);
      chosen_cost = cm.Cost(algorithm, chosen->ratio, eff);
    }

    fl::ClientAssignment a;
    a.capacity = chosen->ratio;
    a.arch_index = chosen->arch_index;
    a.system.compute_time_s = chosen_cost.train_time_s;
    a.system.comm_time_s = chosen_cost.comm_time_s;
    a.system.memory_mb = chosen_cost.memory_mb;
    a.system.comm_mb = chosen_cost.comm_mb;
    a.system.train_gflops = chosen_cost.gflops_fwd;
    a.system.availability = dev.availability;
    a.system.device_tier = device::DeviceTierName(dev.memory_mb, dev.has_gpu);
    out.assignments.push_back(a);
  }
  return out;
}

}  // namespace mhbench::constraints
