#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace kairos {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size() - 1);
}

double Stddev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

namespace {

/// The linear-interpolated q-th percentile of n sorted values sits at this
/// fractional rank: between ranks floor(rank) and ceil(rank).
double RankOf(std::size_t n, double q) {
  return std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
}

}  // namespace

double Percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = RankOf(sorted.size(), q);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
}

double PercentileInPlace(std::span<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const double rank = RankOf(xs.size(), q);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  std::nth_element(xs.begin(), xs.begin() + lo, xs.end());
  // Everything after rank lo is >= it, so rank lo + 1 is the tail's minimum.
  const double hi = rank > std::floor(rank)
                        ? *std::min_element(xs.begin() + lo + 1, xs.end())
                        : xs[lo];
  return xs[lo] + (hi - xs[lo]) * (rank - std::floor(rank));
}

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  if (xs.empty() || xs.size() != ys.size()) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double KendallTau(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const std::size_t n = xs.size();
  long long concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      const double prod = dx * dy;
      if (prod > 0.0) ++concordant;
      if (prod < 0.0) ++discordant;
    }
  }
  const double pairs = 0.5 * static_cast<double>(n) * (n - 1);
  return (concordant - discordant) / pairs;
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LatencyHistogram::LatencyHistogram(double max_value, std::size_t buckets)
    : max_value_(max_value),
      bucket_width_(max_value / static_cast<double>(buckets)),
      counts_(buckets, 0) {}

void LatencyHistogram::Add(double x) {
  const double clamped = std::clamp(x, 0.0, max_value_);
  std::size_t idx = static_cast<std::size_t>(clamped / bucket_width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  ++counts_[idx];
  ++count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(count_);
  std::size_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target) {
      return bucket_width_ * static_cast<double>(i + 1);
    }
  }
  return max_value_;
}

}  // namespace kairos
