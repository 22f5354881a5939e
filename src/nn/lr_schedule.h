// Learning-rate schedules mapping a federated round index to a multiplier
// of the base learning rate.
#pragma once

#include <memory>

namespace mhbench::nn {

class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  // Multiplier (typically in (0, 1]) applied to the base LR at `round` of
  // `total_rounds`.
  virtual double Multiplier(int round, int total_rounds) const = 0;
};

// Multiplies by `gamma` every `step` rounds.
class StepDecayLr : public LrSchedule {
 public:
  StepDecayLr(int step, double gamma);
  double Multiplier(int round, int total_rounds) const override;

 private:
  int step_;
  double gamma_;
};

// Cosine annealing from 1 down to `floor`.
class CosineLr : public LrSchedule {
 public:
  explicit CosineLr(double floor = 0.01);
  double Multiplier(int round, int total_rounds) const override;

 private:
  double floor_;
};

}  // namespace mhbench::nn
