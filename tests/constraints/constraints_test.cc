#include <algorithm>

#include <gtest/gtest.h>

#include "core/error.h"

#include "constraints/combined.h"
#include "constraints/computation_limited.h"
#include "device/cost_model.h"

namespace mhbench::constraints {
namespace {

device::Fleet TestFleet(int n = 40, std::uint64_t seed = 3) {
  device::FleetConfig cfg;
  cfg.num_clients = n;
  cfg.seed = seed;
  return device::SampleFleet(cfg);
}

// The named constraint case on cifar100.
BuiltAssignments BuildCase(const std::string& name,
                           const std::string& algorithm,
                           const device::Fleet& fleet,
                           const ConstraintOptions& options = {}) {
  return BuildConstrained(algorithm, "cifar100", fleet,
                          ParseConstraintCase(name), options);
}

TEST(ComputationLimitedTest, EveryClientMeetsDeadlineOrRunsSmallest) {
  const device::Fleet fleet = TestFleet();
  const auto built =
      BuildComputationLimited("sheterofl", "cifar100", fleet);
  ASSERT_EQ(built.assignments.size(), fleet.size());
  EXPECT_GT(built.compute_deadline_s, 0.0);
  int at_smallest = 0;
  for (const auto& a : built.assignments) {
    if (a.capacity <= 0.25 + 1e-9) {
      ++at_smallest;
    } else {
      EXPECT_LE(a.system.compute_time_s, built.compute_deadline_s + 1e-9);
    }
  }
  // Some heterogeneity must emerge from an IMA-style fleet.
  std::vector<double> caps;
  for (const auto& a : built.assignments) caps.push_back(a.capacity);
  std::sort(caps.begin(), caps.end());
  EXPECT_LT(caps.front(), caps.back());
}

TEST(ComputationLimitedTest, FasterDevicesGetLargerModels) {
  const device::Fleet fleet = TestFleet();
  const auto built =
      BuildComputationLimited("sheterofl", "cifar100", fleet);
  // Capacity must be monotone in device speed.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = 0; j < fleet.size(); ++j) {
      if (fleet[i].gflops > fleet[j].gflops) {
        EXPECT_GE(built.assignments[i].capacity + 1e-9,
                  built.assignments[j].capacity);
      }
    }
  }
}

TEST(CommunicationLimitedTest, CommWithinBudget) {
  const device::Fleet fleet = TestFleet();
  ConstraintOptions opts;
  opts.comm_budget_s = 200.0;
  const auto built =
      BuildCase("communication", "fedrolex", fleet, opts);
  for (const auto& a : built.assignments) {
    if (a.capacity > 0.25 + 1e-9) {
      EXPECT_LE(a.system.comm_time_s, 200.0 + 1e-9);
    }
  }
}

TEST(CommunicationLimitedTest, TighterBudgetSmallerModels) {
  const device::Fleet fleet = TestFleet();
  ConstraintOptions loose, tight;
  loose.comm_budget_s = 500.0;
  tight.comm_budget_s = 30.0;
  const auto big =
      BuildCase("communication", "sheterofl", fleet, loose);
  const auto small =
      BuildCase("communication", "sheterofl", fleet, tight);
  double big_mean = 0, small_mean = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    big_mean += big.assignments[i].capacity;
    small_mean += small.assignments[i].capacity;
  }
  EXPECT_GT(big_mean, small_mean);
}

TEST(MemoryLimitedTest, FitsTier) {
  const device::Fleet fleet = TestFleet();
  const auto built = BuildCase("memory", "depthfl", fleet);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& a = built.assignments[i];
    if (a.capacity > 0.25 + 1e-9) {
      EXPECT_LE(a.system.memory_mb, fleet[i].memory_mb + 1e-6);
    }
  }
}

TEST(MemoryLimitedTest, FedepthHostsLargerModelsThanDepthfl) {
  // The paper's central memory-case finding: FeDepth's small footprint
  // admits larger models than DepthFL under the same tiers.
  const device::Fleet fleet = TestFleet(200);
  const auto fedepth = BuildCase("memory", "fedepth", fleet);
  const auto depthfl = BuildCase("memory", "depthfl", fleet);
  double cap_fedepth = 0, cap_depthfl = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    cap_fedepth += fedepth.assignments[i].capacity;
    cap_depthfl += depthfl.assignments[i].capacity;
  }
  EXPECT_GT(cap_fedepth, cap_depthfl);
}

TEST(ConstraintCaseTest, NamesMapExactlyToFlags) {
  struct Case {
    const char* name;
    bool computation, communication, memory;
  };
  for (const Case& c : {Case{"computation", true, false, false},
                        Case{"communication", false, true, false},
                        Case{"memory", false, false, true},
                        Case{"comm+mem", false, true, true},
                        Case{"comp+comm+mem", true, true, true}}) {
    const ConstraintFlags flags = ParseConstraintCase(c.name);
    EXPECT_EQ(flags.computation, c.computation) << c.name;
    EXPECT_EQ(flags.communication, c.communication) << c.name;
    EXPECT_EQ(flags.memory, c.memory) << c.name;
  }
  // Substrings of the case names used to parse in one command only.
  for (const char* bad : {"comp+mem", "none", "", "Memory", "comm"}) {
    try {
      ParseConstraintCase(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("comp+comm+mem"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CombinedTest, CombinationIsMoreRestrictive) {
  const device::Fleet fleet = TestFleet(100);
  const auto comm =
      BuildCase("communication", "sheterofl", fleet);
  const auto mem = BuildCase("memory", "sheterofl", fleet);
  const auto both = BuildCase("comm+mem", "sheterofl", fleet);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_LE(both.assignments[i].capacity,
              std::min(comm.assignments[i].capacity,
                       mem.assignments[i].capacity) +
                  1e-9);
  }
}

TEST(CombinedTest, TripleAtLeastAsRestrictiveAsDouble) {
  const device::Fleet fleet = TestFleet(100);
  const auto two = BuildCase("comm+mem", "fedrolex", fleet);
  const auto three = BuildCompCommMemLimited("fedrolex", "cifar100", fleet);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_LE(three.assignments[i].capacity,
              two.assignments[i].capacity + 1e-9);
  }
}

TEST(TopologyConstraintTest, ArchIndexVariesWithMemory) {
  const device::Fleet fleet = TestFleet(200);
  const auto built = BuildCase("memory", "fedet", fleet);
  int min_arch = 99, max_arch = -1;
  for (const auto& a : built.assignments) {
    min_arch = std::min(min_arch, a.arch_index);
    max_arch = std::max(max_arch, a.arch_index);
    EXPECT_DOUBLE_EQ(a.capacity, 1.0);  // topology scales arch, not ratio
  }
  EXPECT_LT(min_arch, max_arch);
}

TEST(ConstraintTest, NoFlagsThrows) {
  const device::Fleet fleet = TestFleet(5);
  ConstraintFlags none;
  EXPECT_THROW(BuildConstrained("sheterofl", "cifar100", fleet, none), Error);
}

TEST(ConstraintTest, EmptyFleetThrows) {
  device::Fleet fleet;
  ConstraintFlags flags;
  flags.memory = true;
  EXPECT_THROW(BuildConstrained("sheterofl", "cifar100", fleet, flags),
               Error);
}

TEST(ConstraintTest, AllAlgorithmsAllTasksBuild) {
  const device::Fleet fleet = TestFleet(12);
  for (const char* task : {"cifar10", "cifar100", "agnews", "stackoverflow",
                           "harbox", "ucihar"}) {
    for (const char* alg :
         {"fedavg", "fjord", "sheterofl", "fedrolex", "depthfl",
          "inclusivefl", "fedepth", "fedproto", "fedet"}) {
      const auto built = BuildComputationLimited(alg, task, fleet);
      EXPECT_EQ(built.assignments.size(), fleet.size()) << task << alg;
    }
  }
}

}  // namespace
}  // namespace mhbench::constraints
