#include "nn/loss.h"

#include <cmath>

#include "core/error.h"
#include "tensor/ops.h"

namespace mhbench::nn {

double SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels, Tensor& grad) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  MHB_CHECK_EQ(static_cast<int>(labels.size()), n);
  const Tensor log_probs = ops::LogSoftmaxRows(logits);
  grad = ops::SoftmaxRows(logits);
  double loss = 0.0;
  const Scalar inv_n = 1.0f / static_cast<Scalar>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    MHB_CHECK(y >= 0 && y < c) << "label" << y << "out of range";
    loss -= log_probs[static_cast<std::size_t>(i) * c + y];
    grad[static_cast<std::size_t>(i) * c + y] -= 1.0f;
  }
  grad.Scale(inv_n);
  return loss / n;
}

int CountCorrect(const Tensor& logits, const std::vector<int>& labels) {
  MHB_CHECK_EQ(logits.ndim(), 2);
  MHB_CHECK_EQ(labels.size(), static_cast<std::size_t>(logits.dim(0)));
  if (labels.empty()) return 0;
  const std::vector<int> pred = ops::ArgmaxRows(logits);
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return correct;
}

double Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  const int correct = CountCorrect(logits, labels);
  if (labels.empty()) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

Tensor SoftmaxWithTemperature(const Tensor& logits, double temperature) {
  MHB_CHECK_GT(temperature, 0.0);
  Tensor scaled = logits;
  scaled.Scale(static_cast<Scalar>(1.0 / temperature));
  return ops::SoftmaxRows(scaled);
}

double DistillationKL(const Tensor& student_logits,
                      const Tensor& teacher_probs, double temperature,
                      Tensor& grad) {
  MHB_CHECK(student_logits.shape() == teacher_probs.shape());
  MHB_CHECK_GT(temperature, 0.0);
  const int n = student_logits.dim(0), c = student_logits.dim(1);
  Tensor scaled = student_logits;
  scaled.Scale(static_cast<Scalar>(1.0 / temperature));
  const Tensor log_q = ops::LogSoftmaxRows(scaled);
  const Tensor q = ops::SoftmaxRows(scaled);

  // KL(p || q) summed over classes, averaged over batch, times T^2.
  // d/dlogits of that is T * (q - p) / n.
  double loss = 0.0;
  grad = Tensor({n, c});
  const Scalar t_over_n = static_cast<Scalar>(temperature / n);
  for (int i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * c;
    for (int j = 0; j < c; ++j) {
      const double p = teacher_probs[base + j];
      if (p > 0) {
        loss += p * (std::log(p) - log_q[base + j]);
      }
      grad[base + j] = (q[base + j] - static_cast<Scalar>(p)) * t_over_n;
    }
  }
  return loss * temperature * temperature / n;
}

double MeanSquaredError(const Tensor& pred, const Tensor& target,
                        Tensor& grad) {
  MHB_CHECK(pred.shape() == target.shape());
  const std::size_t n = pred.numel();
  MHB_CHECK_GT(n, 0u);
  grad = Tensor(pred.shape());
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pred[i]) - target[i];
    loss += d * d;
    grad[i] = static_cast<Scalar>(2.0 * d / static_cast<double>(n));
  }
  return loss / static_cast<double>(n);
}

}  // namespace mhbench::nn
