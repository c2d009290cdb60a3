#include <gtest/gtest.h>

#include "cloud/config_space.h"
#include "core/kairos.h"
#include "core/planner.h"
#include "policy/registry.h"

namespace kairos::core {
namespace {

using cloud::Catalog;
using cloud::Config;

TEST(PlannerTest, ConfigSpaceMatchesEnumeration) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  Planner planner(PlannerContext{&catalog, &truth, spec.qos_ms, 2.5});
  const auto space = planner.ConfigSpace();
  const auto direct = cloud::EnumerateConfigs(
      catalog, {.budget_per_hour = 2.5, .min_base_instances = 1});
  EXPECT_EQ(space.size(), direct.size());
}

TEST(PlannerTest, PlanIsWithinBudgetAndRankedDescending) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  Planner planner(PlannerContext{&catalog, &truth, spec.qos_ms, 2.5});
  const auto monitor =
      MonitorFromMix(workload::LogNormalBatches::Production(), 10000, 1);
  const Plan plan = planner.PlanConfiguration(monitor);
  EXPECT_LE(plan.config.CostPerHour(catalog), 2.5 + 1e-9);
  for (std::size_t i = 1; i < plan.ranked.size(); ++i) {
    EXPECT_GE(plan.ranked[i - 1].upper_bound, plan.ranked[i].upper_bound);
  }
  // The chosen config sits within the top-10 upper bounds (Sec. 5.2).
  EXPECT_LT(plan.selection.chosen_rank, 10u);
}

TEST(PlannerTest, InvalidContextThrows) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  EXPECT_THROW(Planner(PlannerContext{nullptr, &truth, 350.0, 2.5}),
               std::invalid_argument);
  EXPECT_THROW(Planner(PlannerContext{&catalog, &truth, 0.0, 2.5}),
               std::invalid_argument);
  EXPECT_THROW(Planner(PlannerContext{&catalog, &truth, 350.0, -1.0}),
               std::invalid_argument);
}

TEST(KairosFacadeTest, ObserveMixWarmsMonitor) {
  const Catalog catalog = Catalog::PaperPool();
  Kairos kairos(catalog, "RM2");
  EXPECT_EQ(kairos.monitor().Count(), 0u);
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  EXPECT_EQ(kairos.monitor().Count(), kairos.options().monitor_warmup);
  kairos.ResetMonitor();
  EXPECT_EQ(kairos.monitor().Count(), 0u);
}

TEST(KairosFacadeTest, QosScaleMultipliesTable3Target) {
  const Catalog catalog = Catalog::PaperPool();
  KairosOptions opt;
  opt.qos_scale = 1.2;  // Fig. 15b
  Kairos kairos(catalog, "WND", opt);
  EXPECT_DOUBLE_EQ(kairos.qos_ms(), 25.0 * 1.2);
  EXPECT_THROW(Kairos(catalog, "WND", KairosOptions{.qos_scale = 0.0}),
               std::invalid_argument);
}

TEST(KairosFacadeTest, ConstructorRejectsWhatCreateRejects) {
  // One validation list: the throwing constructor refuses every option
  // Create() refuses, instead of constructing a session whose first plan
  // (or monitor) fails later.
  const Catalog catalog = Catalog::PaperPool();
  for (const KairosOptions& bad :
       {KairosOptions{.qos_scale = 0.0}, KairosOptions{.budget_per_hour = 0.0},
        KairosOptions{.monitor_warmup = 0}}) {
    EXPECT_THROW(Kairos(catalog, "RM2", bad), std::invalid_argument);
    const auto created = Kairos::Create(catalog, "RM2", bad);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
  // An unknown model is still reported first, as std::out_of_range.
  EXPECT_THROW(Kairos(catalog, "LLAMA", KairosOptions{.budget_per_hour = 0.0}),
               std::out_of_range);
}

TEST(KairosFacadeTest, UnknownModelThrows) {
  const Catalog catalog = Catalog::PaperPool();
  EXPECT_THROW(Kairos(catalog, "LLAMA"), std::out_of_range);
}

TEST(KairosFacadeTest, PlanWithEvaluationsReturnsBudgetedConfig) {
  const Catalog catalog = Catalog::PaperPool();
  KairosOptions opt;
  opt.monitor_warmup = 4000;
  Kairos kairos(catalog, "DIEN", opt);
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  // Cheap synthetic eval: prefer more total instances (monotone), so the
  // search machinery can be exercised without simulations.
  const auto result = kairos.PlanWithEvaluations(
      [](const Config& c) { return static_cast<double>(c.TotalInstances()); },
      search::SearchOptions{.max_evals = 25});
  EXPECT_LE(result.best_config.CostPerHour(catalog), 2.5 + 1e-9);
  EXPECT_LE(result.evals, 25u);
  EXPECT_GT(result.best_qps, 0.0);
}

TEST(MonitorFromMixTest, DeterministicForSeed) {
  const auto mix = workload::LogNormalBatches::Production();
  const auto a = MonitorFromMix(mix, 2000, 5);
  const auto b = MonitorFromMix(mix, 2000, 5);
  EXPECT_DOUBLE_EQ(a.MeanBatch(), b.MeanBatch());
  EXPECT_EQ(a.Count(), 2000u);
}

TEST(RuntimeTest, MeasureThroughputPositiveForFeasibleSetup) {
  // The session measures through the one evaluator: EvaluateConfig with a
  // fresh KAIROS policy per rate trial, bit for bit.
  const Catalog catalog = Catalog::PaperPool();
  const Kairos kairos(catalog, "WND");
  const Config config({2, 0, 0, 0});
  const auto mix = workload::LogNormalBatches::Production();
  serving::EvalOptions opt;
  opt.queries = 300;
  opt.rate_guess = 100.0;
  const auto r = kairos.MeasureThroughput(config, mix, opt);
  EXPECT_GT(r.qps, 0.0);

  const auto factory = PolicyRegistry::Global().MakeFactory("KAIROS", {});
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const auto want = serving::EvaluateConfig(
      catalog, config, kairos.truth(), kairos.qos_ms(), *factory, mix, opt);
  EXPECT_EQ(r.qps, want.qps);
  EXPECT_EQ(r.trials, want.trials);
}

}  // namespace
}  // namespace kairos::core
