#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cloud/config_space.h"
#include "common/rng.h"
#include "core/kairos.h"
#include "policy/registry.h"
#include "reference_ub.h"
#include "serving/throughput_eval.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

namespace kairos::ub {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;

// --- The paper's Fig. 7 worked examples, verbatim. ---

TEST(UpperBoundGeneralTest, PaperScenario1BaseBottleneck) {
  // Qb=100, Qb_s+=90, Qa=150, f=0.6 -> C = 0.4/0.6*150 = 100 >= 90, so the
  // base is the bottleneck: QPSmax = 90 / 0.4 = 225.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.6), 225.0, 1e-9);
}

TEST(UpperBoundGeneralTest, PaperScenario2AuxBottleneck) {
  // Qb=100, Qb_s+=90, Qa=140, f=0.7 -> C = 0.3/0.7*140 = 60 < 90, so the
  // auxiliary is the bottleneck: QPSmax = 140/0.7 + (90-60)/90*100 = 233.3.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 140.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.7), 233.3333, 1e-3);
}

TEST(UpperBoundGeneralTest, MultiNodeScaling) {
  // Eq. 12: u base nodes scale the base-bottleneck bound linearly.
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  const double one = UpperBoundGeneral(1, 100.0, 90.0, aux, 0.6);
  // With u=2 the base-side capacity doubles; C = 100 vs 180 means the
  // auxiliary becomes the bottleneck (Eq. 13 branch).
  const double two = UpperBoundGeneral(2, 100.0, 90.0, aux, 0.6);
  EXPECT_GT(two, one);
  // Doubling the aux nodes under base bottleneck leaves Eq. 12 unchanged.
  const std::array<std::pair<int, double>, 1> aux2 = {{{2, 150.0}}};
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux2, 0.6), 225.0, 1e-9);
}

TEST(UpperBoundGeneralTest, MultipleAuxTypesAggregate) {
  // Two aux types (Eq. 14-15): capacities sum inside C.
  const std::array<std::pair<int, double>, 2> aux = {{{1, 80.0}, {2, 30.0}}};
  // sum v*Qa = 140, same as scenario 2.
  EXPECT_NEAR(UpperBoundGeneral(1, 100.0, 90.0, aux, 0.7), 233.3333, 1e-3);
}

TEST(UpperBoundGeneralTest, EdgeCases) {
  const std::array<std::pair<int, double>, 1> aux = {{{1, 150.0}}};
  // No base nodes: nothing can serve the largest queries.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(0, 100.0, 90.0, aux, 0.6), 0.0);
  // No aux capacity: homogeneous u * Qb.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(3, 100.0, 90.0, {}, 0.6), 300.0);
  // f' = 0: no query fits any auxiliary; again u * Qb.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(2, 100.0, 90.0, aux, 0.0), 200.0);
  // f' = 1: both tiers at full rate.
  EXPECT_DOUBLE_EQ(UpperBoundGeneral(1, 100.0, 90.0, aux, 1.0), 250.0);
}

// --- Estimator over catalog/model/monitor. ---

Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

LatencyModel TinyModel() { return LatencyModel({{10.0, 0.1}, {20.0, 0.4}}); }

TEST(UpperBoundEstimatorTest, BreakdownFieldsAreConsistent) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, /*qos_ms=*/150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);

  const UpperBoundBreakdown b = est.Estimate(Config({2, 3}), monitor);
  // s' for the aux: (0.98*150 - 20) / 0.4 = 317.
  EXPECT_EQ(b.s_prime, 317);
  EXPECT_GT(b.f_prime, 0.5);
  EXPECT_LT(b.f_prime, 1.0);
  EXPECT_GT(b.q_b, 0.0);
  EXPECT_GT(b.q_b_splus, 0.0);
  EXPECT_LT(b.q_b_splus, b.q_b);  // large queries are slower
  EXPECT_GT(b.aux_rate_sum, 0.0);
  EXPECT_GT(b.qps_max, 0.0);
}

TEST(UpperBoundEstimatorTest, HomogeneousEqualsBaseRateTimesNodes) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, 150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);
  const auto b1 = est.Estimate(Config({1, 0}), monitor);
  const auto b3 = est.Estimate(Config({3, 0}), monitor);
  EXPECT_NEAR(b3.qps_max, 3.0 * b1.qps_max, 1e-9);
  EXPECT_NEAR(b1.qps_max, b1.q_b, 1e-9);
}

TEST(UpperBoundEstimatorTest, MonotoneInAddedInstances) {
  // The justification for Kairos+ sub-configuration pruning: adding
  // hardware can only raise the bound.
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const UpperBoundEstimator est(catalog, truth, 150.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 8000, 3);
  for (int u = 1; u <= 3; ++u) {
    for (int v = 0; v <= 6; ++v) {
      const double here = est.QpsMax(Config({u, v}), monitor);
      EXPECT_GE(est.QpsMax(Config({u + 1, v}), monitor), here - 1e-9);
      EXPECT_GE(est.QpsMax(Config({u, v + 1}), monitor), here - 1e-9);
    }
  }
}

TEST(UpperBoundEstimatorTest, InvalidInputsThrow) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EXPECT_THROW(UpperBoundEstimator(catalog, truth, 0.0),
               std::invalid_argument);
  const UpperBoundEstimator est(catalog, truth, 100.0);
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 100, 3);
  EXPECT_THROW(est.Estimate(Config({1}), monitor), std::invalid_argument);
}

// --- Oracle race: the estimator reads the monitor once per region, the
// reference (reference_ub.h) once per config. Every value must match bit
// for bit. ---

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameBreakdown(const UpperBoundBreakdown& got,
                         const UpperBoundBreakdown& want,
                         const std::string& where) {
  EXPECT_TRUE(SameBits(got.qps_max, want.qps_max))
      << where << ": qps_max " << got.qps_max << " vs " << want.qps_max;
  EXPECT_EQ(got.s_prime, want.s_prime) << where;
  EXPECT_TRUE(SameBits(got.f_prime, want.f_prime)) << where << ": f_prime";
  EXPECT_TRUE(SameBits(got.q_b, want.q_b)) << where << ": q_b";
  EXPECT_TRUE(SameBits(got.q_b_splus, want.q_b_splus))
      << where << ": q_b_splus";
  EXPECT_TRUE(SameBits(got.aux_rate_sum, want.aux_rate_sum))
      << where << ": aux_rate_sum";
  EXPECT_TRUE(SameBits(got.c, want.c)) << where << ": c";
  EXPECT_EQ(got.base_bottleneck, want.base_bottleneck) << where;
}

// Races EstimateAll and Estimate against the reference on every config.
void RaceEstimator(const Catalog& catalog, const LatencyModel& truth,
                   double qos_ms, const std::vector<Config>& configs,
                   const workload::QueryMonitor& monitor,
                   const std::string& where) {
  const UpperBoundEstimator est(catalog, truth, qos_ms);
  const std::vector<double> all = est.EstimateAll(configs, monitor);
  ASSERT_EQ(all.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string at = where + " " + configs[i].ToString();
    const UpperBoundBreakdown want = reference::ReferenceEstimate(
        catalog, truth, qos_ms, configs[i], monitor);
    EXPECT_TRUE(SameBits(all[i], want.qps_max))
        << at << ": EstimateAll " << all[i] << " vs " << want.qps_max;
    ExpectSameBreakdown(est.Estimate(configs[i], monitor), want, at);
  }
}

// A latency curve whose MaxQosBatch at qos_ms is exactly `s`: 0 means even
// batch 1 misses QoS, kMaxBatchSize a curve clamped at the cap.
latency::AffineLatency CurveWithBoundary(int s, double qos_ms, Rng& rng) {
  const double budget = latency::kQosSafety * qos_ms;
  if (s == 0) return {budget + rng.Uniform(1.0, 50.0), rng.Uniform(0.1, 1.0)};
  if (s == latency::kMaxBatchSize) {
    return {rng.Uniform(0.0, budget / 2),
            budget / 2 / (latency::kMaxBatchSize * rng.Uniform(1.5, 4.0))};
  }
  // (budget - base_ms) / per_item_ms lands half-way between s and s + 1.
  const double per_item = rng.Uniform(0.1, 1.0) * budget / (s + 0.5);
  return {budget - per_item * (s + 0.5), per_item};
}

// Pools of 2-5 types with the base at a random index. Each auxiliary type
// is infeasible (s' = 0), clamped at kMaxBatchSize, interior, or a
// different curve sharing an earlier auxiliary type's s'.
TEST(UpperBoundOracleRace, RandomPoolsMonitorsAndSpacesMatchBitwise) {
  enum Kind { kInfeasible, kClamped, kInterior, kShared, kNumKinds };
  std::array<int, kNumKinds> seen{};
  Rng rng(2023);
  for (int pool = 0; pool < 32; ++pool) {
    const int n = static_cast<int>(rng.UniformInt(2, 5));
    const auto base = static_cast<cloud::TypeId>(rng.UniformInt(0, n - 1));
    const double qos_ms = rng.Uniform(50.0, 300.0);
    Catalog catalog;
    std::vector<latency::AffineLatency> curves;
    std::vector<int> boundaries;  // s' of each auxiliary type
    for (int t = 0; t < n; ++t) {
      const bool is_base = static_cast<cloud::TypeId>(t) == base;
      catalog.Add({"type" + std::to_string(t), "T" + std::to_string(t),
                   cloud::InstanceClass::kGeneralPurposeCpu,
                   is_base ? rng.Uniform(0.5, 1.2) : rng.Uniform(0.15, 0.6),
                   is_base});
      if (is_base) {
        curves.push_back({rng.Uniform(1.0, 10.0), rng.Uniform(0.01, 0.05)});
        continue;
      }
      int kind = static_cast<int>(rng.UniformInt(0, kNumKinds - 1));
      if (kind == kShared && boundaries.empty()) kind = kInterior;
      ++seen[kind];
      const int s =
          kind == kInfeasible ? 0
          : kind == kClamped  ? latency::kMaxBatchSize
          : kind == kInterior
              ? static_cast<int>(rng.UniformInt(1, latency::kMaxBatchSize - 1))
              : boundaries[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(boundaries.size()) - 1))];
      curves.push_back(CurveWithBoundary(s, qos_ms, rng));
      boundaries.push_back(s);
    }
    const LatencyModel truth(curves);
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      ASSERT_EQ(truth.MaxQosBatch(catalog.AuxiliaryTypes()[i], qos_ms),
                boundaries[i]);
    }

    // The budgeted space with u = 0 allowed, plus configs beyond budget
    // with no base, with no auxiliaries, and empty.
    std::vector<Config> configs = cloud::EnumerateConfigs(
        catalog,
        {.budget_per_hour = rng.Uniform(2.0, 4.0), .min_base_instances = 0});
    std::vector<int> no_base(n, 3), only_base(n, 0);
    no_base[base] = 0;
    only_base[base] = 7;
    configs.emplace_back(no_base);
    configs.emplace_back(only_base);
    configs.emplace_back(std::vector<int>(n, 0));

    std::vector<std::pair<std::string, workload::QueryMonitor>> monitors;
    monitors.emplace_back("empty", workload::QueryMonitor(100));
    monitors.emplace_back("single", workload::QueryMonitor(100));
    monitors.back().second.Observe(
        static_cast<int>(rng.UniformInt(1, latency::kMaxBatchSize)));
    monitors.emplace_back("evicted", workload::QueryMonitor(64));
    for (int i = 0; i < 500; ++i) {
      monitors.back().second.Observe(
          static_cast<int>(rng.UniformInt(1, latency::kMaxBatchSize)));
    }
    monitors.emplace_back(
        "production",
        core::MonitorFromMix(workload::LogNormalBatches::Production(), 3000,
                             static_cast<std::uint64_t>(pool)));
    for (const double alpha : {1.2, 2.5}) {
      for (const double x_min : {1.0, 30.0}) {
        workload::QueryMonitor mon(3000);
        for (int i = 0; i < 3000; ++i) {
          const double b = x_min * std::pow(1.0 - rng.Uniform(), -1.0 / alpha);
          mon.Observe(static_cast<int>(std::min(b, 1e6)));
        }
        monitors.emplace_back("pareto" + std::to_string(alpha) + "/" +
                                  std::to_string(x_min),
                              std::move(mon));
      }
    }
    for (const int s : boundaries) {
      if (s >= 1) {
        workload::QueryMonitor at_or_below(500);
        for (int i = 0; i < 500; ++i) {
          at_or_below.Observe(static_cast<int>(rng.UniformInt(1, s)));
        }
        monitors.emplace_back("all<=" + std::to_string(s),
                              std::move(at_or_below));
      }
      if (s < latency::kMaxBatchSize) {
        workload::QueryMonitor above(500);
        for (int i = 0; i < 500; ++i) {
          above.Observe(static_cast<int>(
              rng.UniformInt(s + 1, latency::kMaxBatchSize)));
        }
        monitors.emplace_back("all>" + std::to_string(s), std::move(above));
      }
    }

    for (const auto& [name, monitor] : monitors) {
      RaceEstimator(catalog, truth, qos_ms, configs, monitor,
                    "pool " + std::to_string(pool) + " " + name);
    }

    // Arity mismatches throw the same type from both, per config.
    const UpperBoundEstimator est(catalog, truth, qos_ms);
    const workload::QueryMonitor& monitor = monitors.back().second;
    for (const int arity : {n - 1, n + 1}) {
      const Config bad(std::vector<int>(static_cast<std::size_t>(arity), 1));
      EXPECT_THROW(est.Estimate(bad, monitor), std::invalid_argument);
      EXPECT_THROW(est.EstimateAll({configs.front(), bad}, monitor),
                   std::invalid_argument);
      EXPECT_THROW(
          reference::ReferenceEstimate(catalog, truth, qos_ms, bad, monitor),
          std::invalid_argument);
    }
  }
  for (int kind = 0; kind < kNumKinds; ++kind) {
    EXPECT_GT(seen[kind], 0) << "auxiliary kind " << kind << " never drawn";
  }
}

// A catalog type the latency model has no curve for fails only the configs
// that rent it, with the reference's exception type.
TEST(UpperBoundOracleRace, TypeWithoutCurveFailsOnlyWhenRented) {
  Catalog catalog = TinyCatalog();
  catalog.Add({"uncalibrated", "U", cloud::InstanceClass::kGeneralPurposeCpu,
               0.2, false});
  const LatencyModel truth = TinyModel();
  const auto monitor =
      core::MonitorFromMix(workload::LogNormalBatches::Production(), 2000, 5);
  RaceEstimator(catalog, truth, 150.0,
                {Config({1, 0, 0}), Config({2, 3, 0}), Config({0, 4, 0})},
                monitor, "unrented");

  const UpperBoundEstimator est(catalog, truth, 150.0);
  const Config rented({1, 1, 1});
  EXPECT_THROW(est.Estimate(rented, monitor), std::out_of_range);
  EXPECT_THROW(est.EstimateAll({Config({1, 0, 0}), rented}, monitor),
               std::out_of_range);
  EXPECT_THROW(
      reference::ReferenceEstimate(catalog, truth, 150.0, rented, monitor),
      std::out_of_range);
}

// Key paper invariant (Definition 2): the estimated bound dominates the
// throughput any distribution scheme actually achieves, across configs.
class UbDominatesAchieved : public ::testing::TestWithParam<
                                std::tuple<std::string, int, int>> {};

TEST_P(UbDominatesAchieved, BoundHolds) {
  const auto [scheme, u, v] = GetParam();
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const double qos_ms = 150.0;
  const auto mix = workload::LogNormalBatches::Production();
  const auto monitor = core::MonitorFromMix(mix, 8000, 11);
  const UpperBoundEstimator est(catalog, truth, qos_ms);
  const Config config({u, v});
  const double bound = est.QpsMax(config, monitor);

  serving::EvalOptions opt;
  opt.queries = 500;
  opt.rate_guess = std::max(1.0, 0.5 * bound);
  const auto achieved = serving::EvaluateConfig(
      catalog, config, truth, qos_ms, PolicyRegistry::Global().MakeFactory(scheme).value(),
      mix, opt);
  EXPECT_LE(achieved.qps, bound * 1.05) << config.ToString() << " " << scheme;
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndConfigs, UbDominatesAchieved,
    ::testing::Combine(::testing::Values("KAIROS", "RIBBON", "CLKWRK"),
                       ::testing::Values(1, 2), ::testing::Values(0, 2, 4)));

// --- Similarity-based selection. ---

TEST(SelectorTest, RankIsDescendingAndStable) {
  const std::vector<Config> configs = {Config({1, 0}), Config({2, 0}),
                                       Config({3, 0})};
  const std::vector<double> bounds = {5.0, 9.0, 9.0};
  const auto ranked = RankByUpperBound(configs, bounds);
  EXPECT_DOUBLE_EQ(ranked[0].upper_bound, 9.0);
  EXPECT_EQ(ranked[0].config, Config({2, 0}));  // stable: first 9.0 wins
  EXPECT_EQ(ranked[2].config, Config({1, 0}));
}

TEST(SelectorTest, Top3AgreementPicksTopRanked) {
  Catalog catalog = TinyCatalog();
  std::vector<RankedConfig> ranked = {
      {Config({2, 5}), 100.0}, {Config({2, 4}), 99.0}, {Config({2, 3}), 98.0},
      {Config({1, 9}), 97.0},
  };
  const SelectionResult r = SelectConfiguration(ranked, catalog);
  EXPECT_FALSE(r.used_distance_rule);
  EXPECT_EQ(r.chosen, Config({2, 5}));
  EXPECT_EQ(r.chosen_rank, 0u);
}

TEST(SelectorTest, DisagreementUsesMinSseCentroid) {
  Catalog catalog = TinyCatalog();
  // Base counts disagree in the top 3; among the cluster below, (2,4) is
  // the centroid-most config.
  std::vector<RankedConfig> ranked = {
      {Config({1, 9}), 100.0}, {Config({3, 3}), 99.5}, {Config({2, 4}), 99.0},
      {Config({2, 5}), 98.5},  {Config({2, 3}), 98.0}, {Config({3, 4}), 97.5},
  };
  const SelectionResult r = SelectConfiguration(ranked, catalog);
  EXPECT_TRUE(r.used_distance_rule);
  // Verify it actually minimizes the SSE over the candidate set.
  double best_sse = 1e300;
  Config best;
  for (const auto& a : ranked) {
    double sse = 0.0;
    for (const auto& b : ranked) sse += a.config.SquaredDistance(b.config);
    if (sse < best_sse) {
      best_sse = sse;
      best = a.config;
    }
  }
  EXPECT_EQ(r.chosen, best);
}

TEST(SelectorTest, ShortListsWork) {
  Catalog catalog = TinyCatalog();
  const std::vector<RankedConfig> one = {{Config({1, 1}), 10.0}};
  EXPECT_EQ(SelectConfiguration(one, catalog).chosen, Config({1, 1}));
  EXPECT_THROW(SelectConfiguration({}, catalog), std::invalid_argument);
}

TEST(SelectorTest, SizeMismatchThrows) {
  EXPECT_THROW(RankByUpperBound({Config({1})}, {1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace kairos::ub
