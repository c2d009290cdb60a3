#include <gtest/gtest.h>

#include <memory>

#include "core/kairos.h"
#include "oracle/oracle.h"
#include "policy/registry.h"
#include "serving/throughput_eval.h"

namespace kairos::oracle {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;

Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

LatencyModel TinyModel() { return LatencyModel({{10.0, 0.1}, {20.0, 0.4}}); }

TEST(OracleTest, SingleBaseUniformBatchesMatchesServiceRate) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  // 100 queries of batch 100 on one base node: 20ms each, back to back.
  const double qps = OracleThroughput(catalog, Config({1, 0}), truth, 200.0,
                                      std::vector<int>(100, 100));
  EXPECT_NEAR(qps, 50.0, 0.5);
}

TEST(OracleTest, AuxOnlyServesItsQosRegion) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  // QoS 100ms: aux region s = (98 - 20) / 0.4 = 195. Batch-500 queries can
  // only run on the base.
  std::vector<int> batches(50, 500);
  const double qps_base_only = OracleThroughput(
      catalog, Config({1, 0}), truth, 100.0, batches);
  const double qps_with_aux = OracleThroughput(
      catalog, Config({1, 5}), truth, 100.0, batches);
  // Auxiliary nodes contribute nothing for all-large batches.
  EXPECT_NEAR(qps_with_aux, qps_base_only, 1e-9);
}

TEST(OracleTest, MixedSizesUseBothTiers) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  std::vector<int> batches;
  for (int i = 0; i < 60; ++i) batches.push_back(50);    // aux-feasible
  for (int i = 0; i < 20; ++i) batches.push_back(800);   // base-only
  const double base_only =
      OracleThroughput(catalog, Config({1, 0}), truth, 150.0, batches);
  const double hetero =
      OracleThroughput(catalog, Config({1, 2}), truth, 150.0, batches);
  EXPECT_GT(hetero, base_only * 1.3);
}

TEST(OracleTest, MonotoneInInstanceCounts) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  const double one =
      OracleThroughput(catalog, Config({1, 0}), truth, 200.0, mix, 1500, 7);
  const double more_base =
      OracleThroughput(catalog, Config({2, 0}), truth, 200.0, mix, 1500, 7);
  const double more_aux =
      OracleThroughput(catalog, Config({1, 2}), truth, 200.0, mix, 1500, 7);
  EXPECT_GT(more_base, one);
  EXPECT_GT(more_aux, one);
}

TEST(OracleTest, EmptyInputsYieldZero) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EXPECT_DOUBLE_EQ(
      OracleThroughput(catalog, Config({1, 0}), truth, 200.0, {}), 0.0);
  EXPECT_DOUBLE_EQ(OracleThroughput(catalog, Config({0, 0}), truth, 200.0,
                                    std::vector<int>(5, 10)),
                   0.0);
}

// The defining property (Definition 2 / Sec. 7): the oracle's throughput
// upper-limits what any real distribution scheme achieves on the same
// hardware and mix.
class OracleDominates : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleDominates, AchievedThroughputNeverBeatsOracle) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  const Config config({1, 2});
  const double qos_ms = 150.0;

  serving::EvalOptions opt;
  opt.queries = 500;
  opt.rate_guess = 30.0;
  KnobMap knobs;
  if (GetParam() == "DRS") knobs["threshold"] = 150.0;
  const auto factory = PolicyRegistry::Global().MakeFactory(GetParam(), knobs);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const auto achieved = serving::EvaluateConfig(catalog, config, truth,
                                                qos_ms, *factory, mix, opt);
  const double oracle_qps =
      OracleThroughput(catalog, config, truth, qos_ms, mix, 3000, 99);
  EXPECT_LE(achieved.qps, oracle_qps * 1.05)  // 5% sampling tolerance
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Schemes, OracleDominates,
                         ::testing::Values("KAIROS", "RIBBON", "DRS",
                                           "CLKWRK"));

TEST(OracleSearchTest, FindsArgmaxAndAlignsVector) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  const std::vector<Config> configs = {Config({1, 0}), Config({1, 3}),
                                       Config({2, 0}), Config({2, 2})};
  const OracleSearchResult r =
      OracleSearch(catalog, configs, truth, 200.0, mix, 1500, 5);
  ASSERT_EQ(r.per_config_qps.size(), configs.size());
  double best = 0.0;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (r.per_config_qps[i] > best) {
      best = r.per_config_qps[i];
      best_idx = i;
    }
  }
  EXPECT_EQ(r.best_config, configs[best_idx]);
  EXPECT_DOUBLE_EQ(r.best_qps, best);
  EXPECT_EQ(r.best_config, Config({2, 2}));  // most hardware wins
}

TEST(OracleSearchTest, EmptyConfigListThrows) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  EXPECT_THROW(OracleSearch(catalog, {}, truth, 200.0, mix, 100, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace kairos::oracle
