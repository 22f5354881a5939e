#include "nn/loss.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/ops.h"

namespace mhbench::nn {
namespace {

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});  // all zeros -> uniform
  Tensor grad;
  const double loss = SoftmaxCrossEntropy(logits, {0, 3}, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits({1, 3}, std::vector<Scalar>{100, 0, 0});
  Tensor grad;
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, {0}, grad), 0.0, 1e-5);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifference) {
  Rng rng(1);
  Tensor logits = Tensor::Randn({3, 5}, rng);
  const std::vector<int> labels = {1, 4, 0};
  Tensor grad;
  SoftmaxCrossEntropy(logits, labels, grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); i += 3) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    Tensor g;
    const double num =
        (SoftmaxCrossEntropy(lp, labels, g) - SoftmaxCrossEntropy(lm, labels, g)) /
        (2 * eps);
    EXPECT_NEAR(grad[i], num, 1e-3);
  }
}

TEST(CrossEntropyTest, GradientRowsSumToZero) {
  Rng rng(2);
  Tensor logits = Tensor::Randn({4, 6}, rng);
  Tensor grad;
  SoftmaxCrossEntropy(logits, {0, 1, 2, 3}, grad);
  for (int i = 0; i < 4; ++i) {
    double sum = 0;
    for (int j = 0; j < 6; ++j) sum += grad.at({i, j});
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(CrossEntropyTest, InvalidLabelThrows) {
  Tensor logits({1, 3});
  Tensor grad;
  EXPECT_THROW(SoftmaxCrossEntropy(logits, {3}, grad), Error);
  EXPECT_THROW(SoftmaxCrossEntropy(logits, {-1}, grad), Error);
}

TEST(AccuracyTest, CountsCorrectRows) {
  Tensor logits({3, 2}, std::vector<Scalar>{1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(Accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(AccuracyTest, CountCorrectIsTheExactInteger) {
  Tensor logits({3, 2}, std::vector<Scalar>{1, 0, 0, 1, 1, 0});
  EXPECT_EQ(CountCorrect(logits, {0, 1, 1}), 2);
  EXPECT_EQ(CountCorrect(logits, {1, 0, 1}), 0);
  EXPECT_THROW(CountCorrect(logits, {0, 1}), Error);
}

TEST(DistillationTest, MatchingDistributionsZeroLoss) {
  Rng rng(3);
  Tensor logits = Tensor::Randn({2, 4}, rng);
  const Tensor probs = SoftmaxWithTemperature(logits, 2.0);
  Tensor grad;
  const double loss = DistillationKL(logits, probs, 2.0, grad);
  EXPECT_NEAR(loss, 0.0, 1e-5);
  EXPECT_LT(grad.MaxAbs(), 1e-4f);
}

TEST(DistillationTest, GradientMatchesFiniteDifference) {
  Rng rng(4);
  Tensor student = Tensor::Randn({2, 3}, rng);
  Tensor teacher_logits = Tensor::Randn({2, 3}, rng);
  const Tensor teacher = SoftmaxWithTemperature(teacher_logits, 3.0);
  Tensor grad;
  DistillationKL(student, teacher, 3.0, grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < student.numel(); ++i) {
    Tensor sp = student, sm = student;
    sp[i] += eps;
    sm[i] -= eps;
    Tensor g;
    const double num = (DistillationKL(sp, teacher, 3.0, g) -
                        DistillationKL(sm, teacher, 3.0, g)) /
                       (2 * eps);
    EXPECT_NEAR(grad[i], num, 2e-3);
  }
}

TEST(DistillationTest, PullsStudentTowardTeacher) {
  // One gradient step should reduce the loss.
  Rng rng(5);
  Tensor student = Tensor::Randn({4, 5}, rng);
  const Tensor teacher =
      SoftmaxWithTemperature(Tensor::Randn({4, 5}, rng), 1.0);
  Tensor grad;
  const double before = DistillationKL(student, teacher, 1.0, grad);
  student.AxpyInPlace(-1.0f, grad);
  Tensor g2;
  const double after = DistillationKL(student, teacher, 1.0, g2);
  EXPECT_LT(after, before);
}

TEST(MseTest, KnownValueAndGradient) {
  Tensor pred = Tensor::FromVector({1, 2});
  Tensor target = Tensor::FromVector({0, 0});
  Tensor grad;
  EXPECT_NEAR(MeanSquaredError(pred, target, grad), 2.5, 1e-6);
  EXPECT_TRUE(grad.AllClose(Tensor::FromVector({1.0f, 2.0f})));
}

TEST(SoftmaxTemperatureTest, HighTemperatureFlattens) {
  Tensor logits({1, 2}, std::vector<Scalar>{2, 0});
  const Tensor p1 = SoftmaxWithTemperature(logits, 1.0);
  const Tensor p10 = SoftmaxWithTemperature(logits, 10.0);
  EXPECT_GT(p1[0] - p1[1], p10[0] - p10[1]);
}

}  // namespace
}  // namespace mhbench::nn
