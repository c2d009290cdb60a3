// Descriptive statistics used across the serving evaluator and tests:
// percentiles (QoS is a p99 target), moments, and the Pearson correlation
// the paper uses to justify linear latency models (Sec. 5.1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace kairos {

/// Arithmetic mean; returns 0 for an empty span.
double Mean(std::span<const double> xs);

/// Unbiased sample variance; returns 0 for spans of size < 2.
double Variance(std::span<const double> xs);

/// Sample standard deviation.
double Stddev(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100]. Copies + sorts internally.
/// Returns 0 for an empty span.
double Percentile(std::span<const double> xs, double q);

/// Percentile(xs, q) without the copy, for hot callers: selects the
/// ranks in place (nth_element, then the minimum of the tail above the
/// lower rank), so it allocates nothing and leaves `xs` reordered. The
/// result is bit-identical to Percentile(xs, q). A caller that also
/// wants Mean(xs) takes it first, because Mean sums in order.
double PercentileInPlace(std::span<double> xs, double q);

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 if either series is constant or the series are empty.
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/// Kendall rank correlation (tau-a) of two equal-length series: the
/// agreement between two rankings in [-1, 1]. Used to compare estimator
/// rankings (upper bound vs. M/M/c) against measured-throughput rankings.
/// O(n^2); fine for the configuration-space sizes involved.
double KendallTau(std::span<const double> xs, std::span<const double> ys);

/// Streaming accumulator for mean/variance/min/max (Welford), O(1) memory.
class RunningStats {
 public:
  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Number of observations so far.
  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when count < 2).
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-resolution latency histogram for cheap streaming percentile
/// estimates over long simulations (bounded memory, bounded error).
class LatencyHistogram {
 public:
  /// Buckets span [0, max_value] uniformly; values above clamp to the
  /// last bucket.
  LatencyHistogram(double max_value, std::size_t buckets);

  void Add(double x);

  /// Percentile estimate (upper edge of the containing bucket, so estimates
  /// are conservative for QoS checks). q in [0, 100].
  double Percentile(double q) const;

  std::size_t count() const { return count_; }

 private:
  double max_value_;
  double bucket_width_;
  std::vector<std::size_t> counts_;
  std::size_t count_ = 0;
};

}  // namespace kairos
