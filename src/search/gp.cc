#include "search/gp.h"

#include <cmath>
#include <stdexcept>

namespace kairos::search {
namespace {

constexpr double kNoiseVariance = 1e-6;

}  // namespace

double GaussianProcess::Kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  // Unit signal variance and unit lengthscale over the normalized inputs.
  return std::exp(-0.5 * d2);
}

void GaussianProcess::Fit(const std::vector<std::vector<double>>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("GaussianProcess::Fit: bad data");
  }
  xs_ = xs;
  y_mean_ = 0.0;
  for (double y : ys) y_mean_ += y;
  y_mean_ /= static_cast<double>(ys.size());

  const std::size_t n = xs.size();
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = Kernel(xs[i], xs[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
    k(i, i) += kNoiseVariance;
  }
  chol_ = CholeskyFactor(k, /*jitter=*/1e-10);
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) centered[i] = ys[i] - y_mean_;
  alpha_ = SolveLowerTransposed(chol_, SolveLower(chol_, centered));
}

GaussianProcess::Prediction GaussianProcess::Predict(
    const std::vector<double>& x) const {
  if (xs_.empty()) {
    throw std::logic_error("GaussianProcess::Predict before Fit");
  }
  const std::size_t n = xs_.size();
  std::vector<double> kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = Kernel(x, xs_[i]);

  Prediction p;
  p.mean = y_mean_ + Dot(kstar, alpha_);
  const std::vector<double> v = SolveLower(chol_, kstar);
  const double var = Kernel(x, x) - Dot(v, v);
  p.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  return p;
}

double ExpectedImprovement(double mean, double stddev, double best) {
  if (stddev <= 0.0) return std::max(0.0, mean - best);
  const double z = (mean - best) / stddev;
  const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  return (mean - best) * cdf + stddev * pdf;
}

}  // namespace kairos::search
