// Gaussian-process regression with an RBF kernel — the surrogate model
// behind the Ribbon Bayesian-optimization baseline. Small and dense (the
// config spaces have ~1e3 points and BO evaluates a few dozen), so exact
// Cholesky inference is plenty. The kernel has unit lengthscale over
// normalized inputs and unit signal variance; observations carry 1e-6
// noise variance.
#pragma once

#include <vector>

#include "common/matrix.h"

namespace kairos::search {

/// Exact GP posterior over observed (x, y) pairs.
class GaussianProcess {
 public:
  /// Fits the posterior; `xs` are equal-length feature vectors. Re-fitting
  /// replaces previous data. y values are internally centered.
  void Fit(const std::vector<std::vector<double>>& xs,
           const std::vector<double>& ys);

  /// Posterior mean and standard deviation at a point.
  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };
  Prediction Predict(const std::vector<double>& x) const;

  bool fitted() const { return !xs_.empty(); }

 private:
  double Kernel(const std::vector<double>& a,
                const std::vector<double>& b) const;

  std::vector<std::vector<double>> xs_;
  double y_mean_ = 0.0;
  Matrix chol_;                  // Cholesky factor of K + noise I
  std::vector<double> alpha_;    // (K + noise I)^-1 (y - mean)
};

/// Expected improvement of a maximization objective at posterior (mu,
/// sigma) over the incumbent best.
double ExpectedImprovement(double mean, double stddev, double best);

}  // namespace kairos::search
