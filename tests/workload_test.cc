#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/stats.h"
#include "latency/latency_model.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/monitor.h"
#include "workload/trace.h"

namespace kairos::workload {
namespace {

// --- Batch distributions: shared properties, parameterized over kinds. ---

std::shared_ptr<const BatchDistribution> MakeDist(const std::string& kind) {
  if (kind == "lognormal") {
    return std::make_shared<LogNormalBatches>(LogNormalBatches::Production());
  }
  if (kind == "gaussian") {
    return std::make_shared<GaussianBatches>(GaussianBatches::Default());
  }
  // empirical: a bimodal recorded mix
  std::vector<int> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(20 + i % 40);
  for (int i = 0; i < 100; ++i) samples.push_back(700 + i % 100);
  return std::make_shared<EmpiricalBatches>(std::move(samples));
}

class BatchDistProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchDistProperties, SamplesWithinRange) {
  const auto dist = MakeDist(GetParam());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const int b = dist->Sample(rng);
    EXPECT_GE(b, 1);
    EXPECT_LE(b, latency::kMaxBatchSize);
  }
}

TEST_P(BatchDistProperties, CdfIsMonotoneAndBounded) {
  const auto dist = MakeDist(GetParam());
  double prev = 0.0;
  for (int b = 0; b <= latency::kMaxBatchSize; b += 50) {
    const double cdf = dist->Cdf(b);
    EXPECT_GE(cdf, prev - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_DOUBLE_EQ(dist->Cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(dist->Cdf(latency::kMaxBatchSize), 1.0);
}

TEST_P(BatchDistProperties, EmpiricalFractionMatchesCdf) {
  const auto dist = MakeDist(GetParam());
  Rng rng(6);
  const int split = 300;
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (dist->Sample(rng) <= split) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, dist->Cdf(split), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BatchDistProperties,
                         ::testing::Values("lognormal", "gaussian",
                                           "empirical"));

TEST(LogNormalBatchesTest, ProductionIsHeavyTailedButMostlySmall) {
  const auto dist = LogNormalBatches::Production();
  // Most queries are small...
  EXPECT_GT(dist.Cdf(200), 0.80);
  // ...but a real tail of near-cap batches exists.
  EXPECT_LT(dist.Cdf(800), 0.999);
}

TEST(LogNormalBatchesTest, InvalidSigmaThrows) {
  EXPECT_THROW(LogNormalBatches(1.0, 0.0), std::invalid_argument);
}

TEST(GaussianBatchesTest, MeanRoughlyPreserved) {
  const GaussianBatches dist(400.0, 50.0);
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(dist.Sample(rng));
  EXPECT_NEAR(stats.mean(), 400.0, 5.0);
}

TEST(EmpiricalBatchesTest, ReplaysOnlyObservedValues) {
  const EmpiricalBatches dist({10, 20, 30});
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const int b = dist.Sample(rng);
    EXPECT_TRUE(b == 10 || b == 20 || b == 30);
  }
  EXPECT_THROW(EmpiricalBatches({}), std::invalid_argument);
}

// --- Arrival processes. ---

TEST(PoissonArrivalsTest, MeanGapMatchesRate) {
  const PoissonArrivals arrivals(50.0);
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(arrivals.NextGap(rng));
  EXPECT_NEAR(stats.mean(), 0.02, 0.001);
  EXPECT_DOUBLE_EQ(arrivals.Rate(), 50.0);
}

TEST(UniformArrivalsTest, FixedGap) {
  const UniformArrivals arrivals(4.0);
  Rng rng(11);
  EXPECT_DOUBLE_EQ(arrivals.NextGap(rng), 0.25);
  EXPECT_DOUBLE_EQ(arrivals.Rate(), 4.0);
}

TEST(ArrivalsTest, NonPositiveRateThrows) {
  EXPECT_THROW(PoissonArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(UniformArrivals(-1.0), std::invalid_argument);
}

// --- Traces. ---

TEST(TraceTest, GenerateIsSortedWithSequentialIds) {
  Rng rng(12);
  const auto mix = LogNormalBatches::Production();
  const PoissonArrivals arrivals(100.0);
  const Trace trace = Trace::Generate(arrivals, mix, 500, rng);
  ASSERT_EQ(trace.size(), 500u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace.queries()[i].arrival, trace.queries()[i - 1].arrival);
    EXPECT_EQ(trace.queries()[i].id, i);
  }
}

TEST(TraceTest, OfferedRateNearNominal) {
  Rng rng(13);
  const auto mix = LogNormalBatches::Production();
  const Trace trace = Trace::Generate(PoissonArrivals(80.0), mix, 4000, rng);
  EXPECT_NEAR(trace.OfferedRate(), 80.0, 8.0);
}

TEST(TraceTest, RetimedPreservesBatchesAndHitsRate) {
  Rng rng(14);
  const auto mix = LogNormalBatches::Production();
  const Trace trace = Trace::Generate(PoissonArrivals(10.0), mix, 1000, rng);
  const Trace fast = trace.Retimed(40.0);
  ASSERT_EQ(fast.size(), trace.size());
  EXPECT_NEAR(fast.OfferedRate(), 40.0, 1e-6);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(fast.queries()[i].batch_size, trace.queries()[i].batch_size);
  }
}

TEST(TraceTest, UnsortedConstructionThrows) {
  std::vector<Query> qs = {{0, 10, 2.0}, {1, 10, 1.0}};
  EXPECT_THROW(Trace{qs}, std::invalid_argument);
}

// --- Query monitor. ---

TEST(QueryMonitorTest, FractionAndMeans) {
  QueryMonitor mon(100);
  for (int b : {10, 20, 30, 40, 500}) mon.Observe(b);
  EXPECT_EQ(mon.Count(), 5u);
  EXPECT_DOUBLE_EQ(mon.FractionAtOrBelow(40), 0.8);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), 120.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatchAtOrBelow(40), 25.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatchAbove(40), 500.0);
}

TEST(QueryMonitorTest, SlidingWindowEvicts) {
  QueryMonitor mon(3);
  mon.Observe(1);
  mon.Observe(2);
  mon.Observe(3);
  mon.Observe(100);  // evicts 1
  EXPECT_EQ(mon.Count(), 3u);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), 35.0);
  EXPECT_DOUBLE_EQ(mon.FractionAtOrBelow(3), 2.0 / 3.0);
}

TEST(QueryMonitorTest, ClampsOutOfRangeObservations) {
  QueryMonitor mon(10);
  mon.Observe(-5);
  mon.Observe(10000);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), (1.0 + latency::kMaxBatchSize) / 2.0);
}

TEST(QueryMonitorTest, EmptyWindowIsZeroes) {
  QueryMonitor mon(10);
  EXPECT_DOUBLE_EQ(mon.FractionAtOrBelow(500), 0.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), 0.0);
  // Status-based since PR 5 (was a std::logic_error throw).
  const auto snap = mon.Snapshot();
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryMonitorTest, SnapshotReplaysWindow) {
  QueryMonitor mon(100);
  for (int i = 0; i < 50; ++i) mon.Observe(42);
  const auto snap = mon.Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  Rng rng(15);
  EXPECT_EQ(snap->Sample(rng), 42);
}

TEST(QueryMonitorTest, BatchMixDriftMeasuresShiftFromPlanningReference) {
  QueryMonitor mon(100);
  for (int i = 0; i < 10; ++i) mon.Observe(100);
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.0);  // no reference marked yet
  mon.MarkPlanningReference();
  EXPECT_DOUBLE_EQ(mon.reference_mean_batch(), 100.0);
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.0);

  // The live mix shifts lighter: ten 50s join the ten 100s.
  for (int i = 0; i < 10; ++i) mon.Observe(50);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), 75.0);
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.25);

  // An explicit reference (e.g. another monitor's planning-time mean).
  mon.MarkPlanningReference(150.0);
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.5);

  // Reset drops the window but keeps the reference: drift reads 0 until
  // fresh samples arrive, then measures against the surviving reference.
  mon.Reset();
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.0);
  EXPECT_DOUBLE_EQ(mon.reference_mean_batch(), 150.0);
  mon.Observe(75);
  EXPECT_DOUBLE_EQ(mon.BatchMixDrift(), 0.5);
}

TEST(QueryMonitorTest, ResetClears) {
  QueryMonitor mon(10);
  mon.Observe(5);
  mon.Reset();
  EXPECT_EQ(mon.Count(), 0u);
  EXPECT_DOUBLE_EQ(mon.MeanBatch(), 0.0);
}

// The region statistics the upper bound reads once per boundary s', at the
// edges of the batch range: below 1 and above kMaxBatchSize clamp, so
// s = -1 acts as 0 and s = kMaxBatchSize + 5 as kMaxBatchSize.
TEST(QueryMonitorTest, RegionStatisticsAtBoundaries) {
  constexpr int kMax = latency::kMaxBatchSize;
  struct Expected {
    int s;
    double fraction, mean_at_or_below, mean_above;
  };
  // After eviction the window holds {1, 2, kMax - 1, kMax}; the evicted
  // 500s must not count.
  QueryMonitor mon(4);
  for (int b : {500, 500, 1, 2, kMax - 1, kMax}) mon.Observe(b);
  ASSERT_EQ(mon.Count(), 4u);
  const std::vector<Expected> evicted = {
      {-1, 0.0, 0.0, 500.5},
      {0, 0.0, 0.0, 500.5},
      {1, 0.25, 1.0, 667.0},
      {kMax - 1, 0.75, 334.0, kMax},
      {kMax, 1.0, 500.5, 0.0},
      {kMax + 5, 1.0, 500.5, 0.0},
  };
  for (const Expected& e : evicted) {
    EXPECT_DOUBLE_EQ(mon.FractionAtOrBelow(e.s), e.fraction) << e.s;
    EXPECT_DOUBLE_EQ(mon.MeanBatchAtOrBelow(e.s), e.mean_at_or_below) << e.s;
    EXPECT_DOUBLE_EQ(mon.MeanBatchAbove(e.s), e.mean_above) << e.s;
  }

  // An empty window and a reset one read zero at every boundary.
  QueryMonitor empty(10);
  mon.Reset();
  for (const Expected& e : evicted) {
    for (const QueryMonitor* m : {&empty, &mon}) {
      EXPECT_DOUBLE_EQ(m->FractionAtOrBelow(e.s), 0.0) << e.s;
      EXPECT_DOUBLE_EQ(m->MeanBatchAtOrBelow(e.s), 0.0) << e.s;
      EXPECT_DOUBLE_EQ(m->MeanBatchAbove(e.s), 0.0) << e.s;
    }
  }
  // Nothing from before the reset survives in the histogram.
  mon.Observe(7);
  EXPECT_DOUBLE_EQ(mon.FractionAtOrBelow(kMax - 1), 1.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatchAtOrBelow(kMax), 7.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatchAbove(0), 7.0);
  EXPECT_DOUBLE_EQ(mon.MeanBatchAbove(7), 0.0);
}

TEST(QueryMonitorTest, TracksDistributionShift) {
  // The Fig. 12 scenario: statistics must follow a regime change once the
  // window turns over.
  QueryMonitor mon(1000);
  Rng rng(16);
  const auto lognormal = LogNormalBatches::Production();
  for (int i = 0; i < 1000; ++i) mon.Observe(lognormal.Sample(rng));
  const double f_before = mon.FractionAtOrBelow(300);
  const GaussianBatches gaussian(500.0, 60.0);
  for (int i = 0; i < 1000; ++i) mon.Observe(gaussian.Sample(rng));
  const double f_after = mon.FractionAtOrBelow(300);
  EXPECT_GT(f_before, 0.85);
  EXPECT_LT(f_after, 0.05);
}

}  // namespace
}  // namespace kairos::workload
