// The budget-allocator registry (STATIC / MARGINAL) and its integration
// with the Fleet facade: conservation, monotonicity, degenerate inputs,
// and STATIC-vs-MARGINAL dominance on a three-model fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/allocator.h"
#include "core/fleet.h"
#include "workload/batch_dist.h"

namespace kairos {
namespace {

using cloud::Catalog;
using core::AllocModel;
using core::AllocationProblem;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(AllocatorRegistryTest, ListsStaticAndMarginal) {
  const auto names = AllocatorRegistry::Global().ListNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "STATIC"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "MARGINAL"), names.end());

  auto lower = AllocatorRegistry::Global().Build("marginal");
  ASSERT_TRUE(lower.ok());  // case-insensitive lookup
  EXPECT_EQ((*lower)->Name(), "MARGINAL");
  EXPECT_TRUE((*lower)->NeedsProbes());

  auto unknown = AllocatorRegistry::Global().Build("GREEDY");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("STATIC"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Synthetic allocation problems (no planner, no simulator): probe(i, b) is
// a concave saturating utility cap_i * (1 - exp(-slope_i * b)).
// ---------------------------------------------------------------------------

AllocationProblem ConcaveProblem(double budget, std::vector<double> caps,
                                 std::vector<double> slopes) {
  AllocationProblem problem;
  problem.budget_per_hour = budget;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    AllocModel m;
    m.name = "m" + std::to_string(i);
    m.floor = 0.5;
    problem.models.push_back(m);
  }
  problem.probe = [caps, slopes](std::size_t i,
                                 double b) -> StatusOr<double> {
    return caps[i] * (1.0 - std::exp(-slopes[i] * b));
  };
  return problem;
}

double TotalUtility(const AllocationProblem& problem,
                    const std::vector<double>& shares) {
  double total = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    total += *problem.probe(i, shares[i]);
  }
  return total;
}

TEST(MarginalAllocatorTest, ConservesBudgetAndRespectsBounds) {
  auto allocator = *AllocatorRegistry::Global().Build("MARGINAL");
  auto problem = ConcaveProblem(10.0, {100.0, 300.0, 50.0}, {0.5, 0.9, 0.2});

  const auto shares = allocator->Allocate(problem);
  ASSERT_TRUE(shares.ok()) << shares.status().ToString();
  ASSERT_EQ(shares->size(), 3u);
  double sum = 0.0;
  for (std::size_t i = 0; i < shares->size(); ++i) {
    EXPECT_GE((*shares)[i], problem.models[i].floor - 1e-9);
    sum += (*shares)[i];
  }
  EXPECT_LE(sum, problem.budget_per_hour + 1e-9);
}

TEST(MarginalAllocatorTest, MoreBudgetNeverLowersTotalUtility) {
  auto allocator = *AllocatorRegistry::Global().Build("MARGINAL");
  const std::vector<double> caps = {120.0, 80.0, 200.0};
  const std::vector<double> slopes = {0.8, 0.3, 0.15};
  double previous = 0.0;
  for (const double budget : {2.0, 4.0, 8.0, 16.0}) {
    auto problem = ConcaveProblem(budget, caps, slopes);
    const auto shares = allocator->Allocate(problem);
    ASSERT_TRUE(shares.ok()) << shares.status().ToString();
    const double total = TotalUtility(problem, *shares);
    EXPECT_GE(total, previous - 1e-9) << "budget " << budget;
    previous = total;
  }
}

TEST(MarginalAllocatorTest, DominatesStaticOnHeterogeneousUtilities) {
  auto marginal = *AllocatorRegistry::Global().Build("MARGINAL");
  auto proportional = *AllocatorRegistry::Global().Build("STATIC");
  // Model 1's utility saturates immediately; STATIC's equal-weight split
  // strands budget there that MARGINAL routes to the steep models.
  auto problem = ConcaveProblem(9.0, {40.0, 10.0, 500.0}, {2.0, 5.0, 0.3});

  const auto m = marginal->Allocate(problem);
  const auto s = proportional->Allocate(problem);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_GE(TotalUtility(problem, *m), TotalUtility(problem, *s) - 1e-9);
  EXPECT_GT(TotalUtility(problem, *m), TotalUtility(problem, *s) * 1.05);
}

TEST(MarginalAllocatorTest, SingleModelGetsTheWholeBudgetWhileItHelps) {
  auto allocator = *AllocatorRegistry::Global().Build("MARGINAL");
  auto problem = ConcaveProblem(4.0, {100.0}, {1.0});
  const auto shares = allocator->Allocate(problem);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), 1u);
  // Strictly concave utility: every grant has positive marginal gain, so
  // the single model absorbs (nearly) the full budget.
  EXPECT_NEAR((*shares)[0], 4.0, 0.15);
}

TEST(MarginalAllocatorTest, RejectsDegenerateProblems) {
  auto allocator = *AllocatorRegistry::Global().Build("MARGINAL");

  auto zero_weight = ConcaveProblem(5.0, {10.0, 10.0}, {1.0, 1.0});
  zero_weight.models[0].weight = 0.0;
  auto bad = allocator->Allocate(zero_weight);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto no_probe = ConcaveProblem(5.0, {10.0}, {1.0});
  no_probe.probe = nullptr;
  auto missing = allocator->Allocate(no_probe);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);

  auto tight = ConcaveProblem(0.6, {10.0, 10.0}, {1.0, 1.0});  // floors 2x0.5
  auto infeasible = allocator->Allocate(tight);
  ASSERT_FALSE(infeasible.ok());
  EXPECT_EQ(infeasible.status().code(), StatusCode::kInfeasible);

  auto probe_error = ConcaveProblem(5.0, {10.0}, {1.0});
  probe_error.probe = [](std::size_t, double) -> StatusOr<double> {
    return Status::Internal("latency surface exploded");
  };
  auto failed = allocator->Allocate(probe_error);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("m0"), std::string::npos);

  // Two failing probes: the error names the first in model order at every
  // thread count, even when the later model fails first.
  auto two_errors = ConcaveProblem(5.0, {10.0, 10.0, 10.0, 10.0},
                                   {1.0, 1.0, 1.0, 1.0});
  two_errors.probe = [](std::size_t i, double) -> StatusOr<double> {
    if (i == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return Status::Internal("slow failure");
    }
    if (i == 2) return Status::Infeasible("fast failure");
    return 1.0;
  };
  two_errors.threads = 1;
  const auto serial = allocator->Allocate(two_errors);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInternal);
  EXPECT_EQ(serial.status().message().rfind("model m1: ", 0), 0u)
      << serial.status().message();
  two_errors.threads = 4;
  const auto pooled = allocator->Allocate(two_errors);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), serial.status().code());
  EXPECT_EQ(pooled.status().message(), serial.status().message());
}

TEST(StaticAllocatorTest, WeightProportionalWithFloor) {
  auto allocator = *AllocatorRegistry::Global().Build("STATIC");
  AllocationProblem problem;
  problem.budget_per_hour = 6.0;
  for (const double weight : {2.0, 1.0}) {
    AllocModel m;
    m.name = "m" + std::to_string(problem.models.size());
    m.weight = weight;
    m.floor = 0.5;
    problem.models.push_back(m);
  }
  auto shares = allocator->Allocate(problem);
  ASSERT_TRUE(shares.ok());
  EXPECT_NEAR((*shares)[0], 4.0, 1e-9);
  EXPECT_NEAR((*shares)[1], 2.0, 1e-9);

  // A share below its floor is infeasible, naming the model.
  problem.models[1].floor = 2.5;
  auto infeasible = allocator->Allocate(problem);
  ASSERT_FALSE(infeasible.ok());
  EXPECT_EQ(infeasible.status().code(), StatusCode::kInfeasible);
  EXPECT_NE(infeasible.status().message().find("m1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet integration
// ---------------------------------------------------------------------------

std::vector<core::FleetModelOptions> ThreeModelFleet() {
  std::vector<core::FleetModelOptions> models;
  for (const char* name : {"RM2", "WND", "NCF"}) {
    core::FleetModelOptions m;
    m.model = name;
    m.monitor_warmup = 3000;
    models.push_back(m);
  }
  return models;
}

TEST(FleetAllocatorTest, UnknownAllocatorAndTraceAreNotFound) {
  const Catalog catalog = Catalog::PaperPool();
  core::FleetOptions options;
  options.allocator = "GREEDY";
  auto fleet = Fleet::Create(catalog, ThreeModelFleet(), options);
  ASSERT_FALSE(fleet.ok());
  EXPECT_EQ(fleet.status().code(), StatusCode::kNotFound);
  EXPECT_NE(fleet.status().message().find("MARGINAL"), std::string::npos);

  auto models = ThreeModelFleet();
  models[1].trace = "TWITTER";
  auto bad_trace = Fleet::Create(catalog, models);
  ASSERT_FALSE(bad_trace.ok());
  EXPECT_EQ(bad_trace.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad_trace.status().message().find("WND"), std::string::npos);
}

TEST(FleetAllocatorTest, MarginalPlanKeepsTheFleetInvariants) {
  const Catalog catalog = Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 7.5;
  options.allocator = "MARGINAL";
  options.planning_threads = 2;
  auto fleet = Fleet::Create(catalog, ThreeModelFleet(), options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->models.size(), 3u);

  double share_sum = 0.0;
  for (const core::FleetModelPlan& m : plan->models) {
    EXPECT_LE(m.cost_per_hour, m.budget_per_hour + 1e-9) << m.model;
    EXPECT_GE(m.outcome.config.Count(catalog.BaseType()), 1) << m.model;
    EXPECT_GT(m.outcome.expected_qps, 0.0) << m.model;
    share_sum += m.budget_per_hour;
  }
  EXPECT_LE(share_sum, plan->budget_per_hour + 1e-9);
  EXPECT_LE(plan->total_cost_per_hour, plan->budget_per_hour + 1e-9);
}

TEST(FleetAllocatorTest, MarginalMatchesOrBeatsStaticOnPlannedQps) {
  const Catalog catalog = Catalog::PaperPool();
  // Weights deliberately mismatched to the models' marginal value: NCF
  // (tiny model, tight QoS) hogs half the static split.
  auto models = ThreeModelFleet();
  models[0].weight = 1.0;  // RM2
  models[1].weight = 1.0;  // WND
  models[2].weight = 2.0;  // NCF

  const auto planned_total = [&](const std::string& allocator) {
    core::FleetOptions options;
    options.budget_per_hour = 8.0;
    options.allocator = allocator;
    auto fleet = Fleet::Create(catalog, models, options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    fleet->ObserveMixAll(workload::LogNormalBatches::Production());
    const auto plan = fleet->PlanAll();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    double total = 0.0;
    for (const auto& m : plan->models) total += m.outcome.expected_qps;
    return total;
  };

  EXPECT_GE(planned_total("MARGINAL"), planned_total("STATIC") - 1e-6);
}

TEST(FleetAllocatorTest, MarginalSurvivesFloorsThatStaticRejects) {
  const Catalog catalog = Catalog::PaperPool();
  // $1.2 split 2:1 leaves WND's static share below one base instance
  // (the api_test TinyBudgetShareIsInfeasible case) — MARGINAL only needs
  // the floors to fit and re-splits from there.
  auto models = ThreeModelFleet();
  models.resize(2);  // RM2 + WND
  models[0].weight = 2.0;
  core::FleetOptions options;
  options.budget_per_hour = 1.2;
  auto rejected = Fleet::Create(catalog, models, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInfeasible);

  options.allocator = "MARGINAL";
  auto fleet = Fleet::Create(catalog, models, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // The seeded session budgets honor every floor without collectively
  // overspending the envelope (the allocator re-splits at PlanAll).
  double session_sum = 0.0;
  for (const char* name : {"RM2", "WND"}) {
    const double share = (*fleet->Session(name))->options().budget_per_hour;
    EXPECT_GE(share, 0.526 - 1e-9) << name;  // cheapest base instance
    session_sum += share;
  }
  EXPECT_LE(session_sum, options.budget_per_hour + 1e-9);

  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const auto& m : plan->models) {
    EXPECT_LE(m.cost_per_hour, m.budget_per_hour + 1e-9) << m.model;
  }

  // But floors that cannot all fit stay infeasible even for MARGINAL.
  options.budget_per_hour = 0.6;
  auto impossible = Fleet::Create(catalog, models, options);
  ASSERT_FALSE(impossible.ok());
  EXPECT_EQ(impossible.status().code(), StatusCode::kInfeasible);
}

TEST(FleetAllocatorTest, PerModelTracesDriveMonitorsAndMeasurement) {
  const Catalog catalog = Catalog::PaperPool();
  auto models = ThreeModelFleet();
  models.resize(2);  // RM2 + WND
  models[0].trace = "GAUSSIAN";
  models[0].arrival_scale = 3.0;
  models[1].monitor_warmup = 2000;
  models[0].monitor_warmup = 2000;

  core::FleetOptions options;
  options.budget_per_hour = 5.0;
  auto fleet = Fleet::Create(catalog, models, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // ObserveMixAll warms RM2 from its own GAUSSIAN trace (mean batch ~150)
  // and WND from the caller's production mix (mean batch well under 120).
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  EXPECT_GT((*fleet->Session("RM2"))->monitor().MeanBatch(), 120.0);
  EXPECT_LT((*fleet->Session("WND"))->monitor().MeanBatch(), 120.0);

  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  serving::EvalOptions eval;
  eval.queries = 200;
  eval.bisect_iters = 3;
  const auto measured = fleet->MeasureAll(
      *plan, workload::LogNormalBatches::Production(), eval);
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  ASSERT_EQ(measured->models.size(), 2u);
  const double rm2_qps = measured->models[0].result.qps;
  const double wnd_qps = measured->models[1].result.qps;
  EXPECT_NEAR(measured->total_qps, rm2_qps + wnd_qps, 1e-9);
  // RM2's traffic counts 3x in the arrival-weighted aggregate.
  EXPECT_NEAR(measured->total_weighted_qps, 3.0 * rm2_qps + wnd_qps, 1e-9);
}

}  // namespace
}  // namespace kairos
