#include <gtest/gtest.h>

#include "cloud/config_space.h"
#include "core/kairos.h"
#include "core/planner.h"
#include "core/planner_backend.h"
#include "or_throw.h"
#include "policy/registry.h"

namespace kairos::core {
namespace {

using cloud::Catalog;
using cloud::Config;

TEST(PlannerTest, ConfigSpaceMatchesEnumeration) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  const auto space =
      BudgetedSpace(PlannerContext{&catalog, &truth, spec.qos_ms, 2.5});
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  const auto direct = cloud::EnumerateConfigs(
      catalog, {.budget_per_hour = 2.5, .min_base_instances = 1});
  EXPECT_EQ(space->size(), direct.size());
}

TEST(PlannerTest, PlanIsWithinBudgetAndRankedDescending) {
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  const auto monitor =
      MonitorFromMix(workload::LogNormalBatches::Production(), 10000, 1);
  const Plan plan = OrThrow(PlanOneShot(
      PlannerContext{&catalog, &truth, spec.qos_ms, 2.5}, monitor));
  EXPECT_LE(plan.config.CostPerHour(catalog), 2.5 + 1e-9);
  for (std::size_t i = 1; i < plan.ranked.size(); ++i) {
    EXPECT_GE(plan.ranked[i - 1].upper_bound, plan.ranked[i].upper_bound);
  }
  // The chosen config sits within the top-10 upper bounds (Sec. 5.2).
  EXPECT_LT(plan.selection.chosen_rank, 10u);
}

TEST(PlannerTest, InvalidContextIsInvalidArgument) {
  // One context check for every planner: each registered backend, and
  // the planning functions the Kairos facade calls, refuse the same three
  // contexts with the same code.
  const Catalog catalog = Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  const auto monitor =
      MonitorFromMix(workload::LogNormalBatches::Production(), 2000, 1);
  PlanRequest request;
  request.monitor = &monitor;
  request.eval = [](const Config& c) {
    return static_cast<double>(c.TotalInstances());
  };
  for (const PlannerContext& bad :
       {PlannerContext{nullptr, &truth, 350.0, 2.5},
        PlannerContext{&catalog, &truth, 0.0, 2.5},
        PlannerContext{&catalog, &truth, 350.0, -1.0}}) {
    for (const std::string& name : PlannerRegistry::Global().ListNames()) {
      const auto backend = OrThrow(PlannerRegistry::Global().Build(name));
      for (const auto& outcome :
           {backend->Plan(bad, request), backend->Probe(bad, request)}) {
        ASSERT_FALSE(outcome.ok()) << name;
        EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
            << name << ": " << outcome.status().ToString();
      }
    }
    EXPECT_EQ(PlanOneShot(bad, monitor).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(PlanKairosPlus(bad, monitor, request.eval).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(KairosFacadeTest, ObserveMixWarmsMonitor) {
  const Catalog catalog = Catalog::PaperPool();
  Kairos kairos = OrThrow(Kairos::Create(catalog, "RM2"));
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
  const Kairos kairos = OrThrow(Kairos::Create(catalog, "WND", opt));
  EXPECT_DOUBLE_EQ(kairos.qos_ms(), 25.0 * 1.2);
  EXPECT_EQ(Kairos::Create(catalog, "WND", KairosOptions{.qos_scale = 0.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(KairosFacadeTest, CreateRejectsBadOptions) {
  // Create is the only construction path, so a session whose first plan
  // (or monitor) would fail later is never built.
  const Catalog catalog = Catalog::PaperPool();
  for (const KairosOptions& bad :
       {KairosOptions{.qos_scale = 0.0}, KairosOptions{.budget_per_hour = 0.0},
        KairosOptions{.monitor_warmup = 0}}) {
    const auto created = Kairos::Create(catalog, "RM2", bad);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
  // An unknown model is reported first.
  EXPECT_EQ(Kairos::Create(catalog, "LLAMA",
                           KairosOptions{.budget_per_hour = 0.0})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(KairosFacadeTest, UnknownModelIsNotFound) {
  const Catalog catalog = Catalog::PaperPool();
  EXPECT_EQ(Kairos::Create(catalog, "LLAMA").status().code(),
            StatusCode::kNotFound);
}

TEST(KairosFacadeTest, PlanWithEvaluationsReturnsBudgetedConfig) {
  const Catalog catalog = Catalog::PaperPool();
  KairosOptions opt;
  opt.monitor_warmup = 4000;
  Kairos kairos = OrThrow(Kairos::Create(catalog, "DIEN", opt));
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  // Cheap synthetic eval: prefer more total instances (monotone), so the
  // search machinery can be exercised without simulations.
  const auto result = OrThrow(kairos.PlanWithEvaluations(
      [](const Config& c) { return static_cast<double>(c.TotalInstances()); },
      search::SearchOptions{.max_evals = 25}));
  EXPECT_LE(result.best_config.CostPerHour(catalog), 2.5 + 1e-9);
  EXPECT_LE(result.evals, 25u);
  EXPECT_GT(result.best_qps, 0.0);
}

TEST(KairosFacadeTest, BudgetBelowOneBaseInstanceIsInfeasible) {
  // $0.30/hr buys no G1 ($0.526/hr), so there is nothing to plan: the
  // facade answers what the KAIROS and KAIROS+ backends answer for the
  // same context, and neither throws nor returns an empty config.
  const Catalog catalog = Catalog::PaperPool();
  Kairos kairos =
      OrThrow(Kairos::Create(catalog, "RM2", {.budget_per_hour = 0.30}));
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  const search::EvalFn eval = [](const Config& c) {
    return static_cast<double>(c.TotalInstances());
  };
  EXPECT_EQ(kairos.PlanConfiguration().status().code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(kairos.PlanWithEvaluations(eval).status().code(),
            StatusCode::kInfeasible);
  const PlannerContext ctx{&catalog, &kairos.truth(), kairos.qos_ms(), 0.30};
  PlanRequest request;
  request.monitor = &kairos.monitor();
  request.eval = eval;
  for (const char* name : {"KAIROS", "KAIROS+"}) {
    const auto backend = OrThrow(PlannerRegistry::Global().Build(name));
    EXPECT_EQ(backend->Plan(ctx, request).status().code(),
              StatusCode::kInfeasible)
        << name;
  }
  // The evaluation checks come before the budget, as in the KAIROS+
  // backend.
  EXPECT_EQ(kairos.PlanWithEvaluations(nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(kairos.PlanWithEvaluations(eval, {.max_evals = 0}).status().code(),
            StatusCode::kInvalidArgument);
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
  const Kairos kairos = OrThrow(Kairos::Create(catalog, "WND"));
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
