#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/env.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time.h"

namespace kairos {
namespace {

TEST(TimeTest, MsSecRoundTrip) {
  EXPECT_DOUBLE_EQ(MsToSec(250.0), 0.25);
  EXPECT_DOUBLE_EQ(SecToMs(0.25), 250.0);
  EXPECT_DOUBLE_EQ(SecToMs(MsToSec(123.456)), 123.456);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    ones += rng.Categorical(weights) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // Child continues deterministically but differs from parent's stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.Uniform() == child.Uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(StatsTest, MeanVarianceStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 4.571428, 1e-5);
  EXPECT_NEAR(Stddev(xs), 2.13809, 1e-4);
}

TEST(StatsTest, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(Variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(empty, 99.0), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 5.0);
}

TEST(StatsTest, PercentileInPlaceMatchesSortingPercentileBitForBit) {
  // The in-place selection is raced against the sorting oracle over
  // random vectors: continuous draws, and draws from a handful of values
  // so that ties straddle the selected ranks.
  Rng rng(20261019);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{100},
                              std::size_t{101}}) {
    for (int trial = 0; trial < 40; ++trial) {
      const bool ties = trial % 2 == 1;
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = ties ? static_cast<double>(rng.UniformInt(0, 4)) * 2.5
                 : rng.LogNormal(3.0, 1.0);
      }
      for (const double q : {0.0, 1.0, 37.5, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        const double sorted = Percentile(xs, q);
        std::vector<double> scratch = xs;
        const double selected = PercentileInPlace(scratch, q);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(selected),
                  std::bit_cast<std::uint64_t>(sorted))
            << "n=" << n << " q=" << q << " ties=" << ties;
      }
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(PercentileInPlace(empty, 99.0), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  for (double& y : ys) y = -y;
  EXPECT_NEAR(PearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, ys), 0.0);
}

TEST(RunningStatsTest, MatchesBatchStats) {
  Rng rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(0.0, 10.0);
    xs.push_back(x);
    rs.Add(x);
  }
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), Variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(rs.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(LatencyHistogramTest, PercentileConservative) {
  LatencyHistogram hist(100.0, 100);
  for (int i = 1; i <= 100; ++i) hist.Add(static_cast<double>(i) - 0.5);
  // Bucket upper edges: p50 over 1..100 uniform ≈ 50.
  EXPECT_NEAR(hist.Percentile(50.0), 50.0, 1.0);
  EXPECT_NEAR(hist.Percentile(99.0), 99.0, 1.0);
  // Estimates never under-report (upper bucket edge).
  EXPECT_GE(hist.Percentile(99.0), 98.5);
}

TEST(LatencyHistogramTest, ClampsOutOfRange) {
  LatencyHistogram hist(10.0, 10);
  hist.Add(1e9);
  hist.Add(-5.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_LE(hist.Percentile(100.0), 10.0);
}

TEST(MatrixTest, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, MultiplyIdentity) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::Identity(2);
  const Matrix p = m.Multiply(i);
  EXPECT_DOUBLE_EQ(p(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

TEST(MatrixTest, TransposedSwapsIndices) {
  Matrix m(2, 3);
  m(0, 2) = 5.0;
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
}

TEST(CholeskyTest, FactorReconstructs) {
  const Matrix a{{4.0, 2.0, 0.6}, {2.0, 5.0, 1.5}, {0.6, 1.5, 3.0}};
  const Matrix l = CholeskyFactor(a);
  const Matrix recon = l.Multiply(l.Transposed());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-10);
    }
  }
}

TEST(CholeskyTest, SolveSpdRecoversSolution) {
  const Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  // x = (1, 2) -> b = A x = (8, 12).
  const std::vector<double> x = SolveSpd(a, {8.0, 12.0});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(CholeskyTest, NotPositiveDefiniteThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // indefinite
  EXPECT_THROW(CholeskyFactor(a), std::domain_error);
}

TEST(TableTest, RenderAndCsv) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", TextTable::Num(1.2345, 2)});
  const std::string rendered = t.Render();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1.23"), std::string::npos);
  EXPECT_EQ(t.RenderCsv(), "name,value\nalpha,1.23\n");
}

TEST(TableTest, WidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(EnvTest, ScaledCountHasFloor) {
  EXPECT_GE(ScaledCount(1000, 64), 64u);
  EXPECT_GE(ScaledCount(10, 64), 64u);
}

}  // namespace
}  // namespace kairos
