// Loss functions.  Each returns the scalar loss averaged over the batch and
// writes the gradient w.r.t. its first argument into `grad`.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace mhbench::nn {

// Mean softmax cross-entropy of logits [N, C] against integer labels.
// Returns loss; `grad` receives dL/dlogits [N, C].
double SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels, Tensor& grad);

// Number of rows whose argmax equals the label.
int CountCorrect(const Tensor& logits, const std::vector<int>& labels);

// Fraction of rows whose argmax equals the label (0 for no rows).
double Accuracy(const Tensor& logits, const std::vector<int>& labels);

// Temperature-scaled distillation loss: KL(teacher_probs^T || student^T),
// scaled by T^2 as usual.  `teacher_probs` are probabilities [N, C]
// (already softmaxed at temperature T by the caller or at T=1).
double DistillationKL(const Tensor& student_logits, const Tensor& teacher_probs,
                      double temperature, Tensor& grad);

// Mean squared error between `pred` and `target` (matching shapes),
// averaged over all elements.
double MeanSquaredError(const Tensor& pred, const Tensor& target,
                        Tensor& grad);

// Softmax probabilities of logits at a temperature (helper for distillation
// pipelines: the *teacher* side of DistillationKL).
Tensor SoftmaxWithTemperature(const Tensor& logits, double temperature);

}  // namespace mhbench::nn
