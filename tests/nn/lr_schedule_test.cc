#include "nn/lr_schedule.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace mhbench::nn {
namespace {

TEST(LrScheduleTest, StepDecay) {
  StepDecayLr lr(10, 0.5);
  EXPECT_DOUBLE_EQ(lr.Multiplier(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(lr.Multiplier(9, 100), 1.0);
  EXPECT_DOUBLE_EQ(lr.Multiplier(10, 100), 0.5);
  EXPECT_DOUBLE_EQ(lr.Multiplier(25, 100), 0.25);
}

TEST(LrScheduleTest, StepDecayValidation) {
  EXPECT_THROW(StepDecayLr(0, 0.5), Error);
  EXPECT_THROW(StepDecayLr(5, 0.0), Error);
  StepDecayLr lr(5, 0.5);
  EXPECT_THROW(lr.Multiplier(-1, 10), Error);
}

TEST(LrScheduleTest, CosineEndpoints) {
  CosineLr lr(0.1);
  EXPECT_NEAR(lr.Multiplier(0, 100), 1.0, 1e-9);
  EXPECT_NEAR(lr.Multiplier(100, 100), 0.1, 1e-9);
  // Midpoint is the average of floor and 1.
  EXPECT_NEAR(lr.Multiplier(50, 100), 0.55, 1e-9);
}

TEST(LrScheduleTest, CosineMonotoneDecreasing) {
  CosineLr lr(0.01);
  double prev = 2.0;
  for (int r = 0; r <= 50; r += 5) {
    const double m = lr.Multiplier(r, 50);
    EXPECT_LT(m, prev);
    prev = m;
  }
}

TEST(LrScheduleTest, CosineValidation) {
  EXPECT_THROW(CosineLr(-0.1), Error);
  EXPECT_THROW(CosineLr(1.1), Error);
  CosineLr lr(0.1);
  EXPECT_THROW(lr.Multiplier(0, 0), Error);
}

}  // namespace
}  // namespace mhbench::nn
