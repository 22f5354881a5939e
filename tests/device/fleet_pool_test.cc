#include <gtest/gtest.h>

#include "core/error.h"

#include "algorithms/registry.h"
#include "device/device_profile.h"
#include "device/ima_fleet.h"
#include "device/model_pool.h"

namespace mhbench::device {
namespace {

TEST(FleetTest, DeterministicForSeed) {
  FleetConfig cfg;
  cfg.num_clients = 50;
  const Fleet a = SampleFleet(cfg);
  const Fleet b = SampleFleet(cfg);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].gflops, b[i].gflops);
    EXPECT_DOUBLE_EQ(a[i].bandwidth_mbps, b[i].bandwidth_mbps);
    EXPECT_DOUBLE_EQ(a[i].memory_mb, b[i].memory_mb);
  }
}

TEST(FleetTest, MemoryTierProportionsApproximate) {
  FleetConfig cfg;
  cfg.num_clients = 4000;
  cfg.p16gb = 0.2;
  cfg.p4gb = 0.5;
  const Fleet fleet = SampleFleet(cfg);
  int n16 = 0, n4 = 0, ncpu = 0;
  for (const auto& d : fleet) {
    if (d.memory_mb > 4000) {
      ++n16;
    } else if (d.has_gpu) {
      ++n4;
    } else {
      ++ncpu;
    }
  }
  EXPECT_NEAR(n16 / 4000.0, 0.2, 0.03);
  EXPECT_NEAR(n4 / 4000.0, 0.5, 0.03);
  EXPECT_NEAR(ncpu / 4000.0, 0.3, 0.03);
}

TEST(FleetTest, ComputeSpreadIsWide) {
  FleetConfig cfg;
  cfg.num_clients = 2000;
  const Fleet fleet = SampleFleet(cfg);
  double lo = 1e30, hi = 0;
  for (const auto& d : fleet) {
    lo = std::min(lo, d.gflops);
    hi = std::max(hi, d.gflops);
  }
  // IMA-style fleets span at least an order of magnitude.
  EXPECT_GT(hi / lo, 10.0);
}

TEST(FleetTest, CpuOnlyDevicesSlower) {
  FleetConfig cfg;
  cfg.num_clients = 2000;
  const Fleet fleet = SampleFleet(cfg);
  double gpu_sum = 0, cpu_sum = 0;
  int gpu_n = 0, cpu_n = 0;
  for (const auto& d : fleet) {
    if (d.has_gpu) {
      gpu_sum += d.gflops;
      ++gpu_n;
    } else {
      cpu_sum += d.gflops;
      ++cpu_n;
    }
  }
  ASSERT_GT(gpu_n, 0);
  ASSERT_GT(cpu_n, 0);
  EXPECT_GT(gpu_sum / gpu_n, 3.0 * (cpu_sum / cpu_n));
}

TEST(FleetTest, InvalidConfigThrows) {
  FleetConfig cfg;
  cfg.num_clients = 0;
  EXPECT_THROW(SampleFleet(cfg), Error);
  cfg.num_clients = 10;
  cfg.p16gb = 0.8;
  cfg.p4gb = 0.5;
  EXPECT_THROW(SampleFleet(cfg), Error);
}

TEST(ModelPoolTest, WidthPoolHasLadderEntries) {
  const auto descs = PaperDescsForTask("cifar100");
  const ModelPool pool = ModelPool::ForAlgorithm(
      "sheterofl", descs, algorithms::RatioLadder(), JetsonOrinNx());
  ASSERT_EQ(pool.entries().size(), 4u);
  // Ascending by params.
  for (std::size_t i = 1; i < pool.entries().size(); ++i) {
    EXPECT_LT(pool.entries()[i - 1].cost.params_m,
              pool.entries()[i].cost.params_m);
  }
}

TEST(ModelPoolTest, TopologyPoolHasFamilyEntries) {
  const auto descs = PaperDescsForTask("cifar100");
  const ModelPool pool = ModelPool::ForAlgorithm(
      "fedet", descs, algorithms::RatioLadder(), JetsonOrinNx());
  EXPECT_EQ(pool.entries().size(), 4u);  // resnet18/34/50/101
  EXPECT_EQ(pool.entries().front().model, "resnet18");
  EXPECT_EQ(pool.entries().back().model, "resnet101");
}

}  // namespace
}  // namespace mhbench::device
