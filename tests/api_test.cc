// The registry-driven public API: policy/planner registries, Status-based
// errors, the Kairos::Create path, and the multi-model Fleet facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/status.h"
#include "core/fleet.h"
#include "core/kairos.h"
#include "core/planner_backend.h"
#include "policy/registry.h"

namespace kairos {
namespace {

using cloud::Catalog;
using cloud::Config;

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOkAndFactoriesCarryCodes) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().ToString(), "OK");
  const Status s = Status::NotFound("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such thing");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 42);
  EXPECT_EQ(ok_value.value_or(-1), 42);

  StatusOr<int> error(Status::Infeasible("too expensive"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(error.value_or(-1), -1);
}

// ---------------------------------------------------------------------------
// PolicyRegistry
// ---------------------------------------------------------------------------

TEST(PolicyRegistryTest, ListsAllPaperSchemes) {
  const auto names = PolicyRegistry::Global().ListNames();
  for (const char* expected :
       {"KAIROS", "RIBBON", "DRS", "CLKWRK", "PARTITIONED"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scheme " << expected;
  }
}

TEST(PolicyRegistryTest, RoundTripBuildsEveryListedScheme) {
  for (const std::string& name : PolicyRegistry::Global().ListNames()) {
    auto built = PolicyRegistry::Global().Build(name);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_NE(*built, nullptr);
    // The instance's reported name starts with the canonical registry name
    // (PARTITIONED reports its partition count as a suffix).
    EXPECT_EQ((*built)->Name().rfind(
                  name == "PARTITIONED" ? "KAIROS-POP" : name, 0),
              0u)
        << name << " built a policy named " << (*built)->Name();
  }
}

TEST(PolicyRegistryTest, LookupIsCaseInsensitive) {
  for (const std::string& name : {"kairos", "Kairos", "KAIROS", "rIbBoN"}) {
    EXPECT_TRUE(PolicyRegistry::Global().Contains(name)) << name;
    EXPECT_TRUE(PolicyRegistry::Global().Build(name).ok()) << name;
  }
}

TEST(PolicyRegistryTest, UnknownNameIsNotFoundAndListsAlternatives) {
  const auto result = PolicyRegistry::Global().Build("FCFS++");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  for (const std::string& name : PolicyRegistry::Global().ListNames()) {
    EXPECT_NE(result.status().message().find(name), std::string::npos)
        << "error message does not name " << name;
  }
}

TEST(PolicyRegistryTest, KnobsOverrideDefaultsAndUnknownKnobRejected) {
  auto info = PolicyRegistry::Global().Info("DRS");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->knobs.at("threshold"), 200.0);

  auto drs = PolicyRegistry::Global().Build("DRS", {{"threshold", 350.0}});
  ASSERT_TRUE(drs.ok());
  EXPECT_EQ((*drs)->Name(), "DRS");

  auto bad = PolicyRegistry::Global().Build("DRS", {{"thresh", 350.0}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("threshold"), std::string::npos);

  // Out-of-range knob *values* are errors too, never silently clamped.
  for (const double out_of_range : {-5.0, 1e9}) {
    auto bad_value =
        PolicyRegistry::Global().Build("DRS", {{"threshold", out_of_range}});
    ASSERT_FALSE(bad_value.ok());
    EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(PolicyRegistry::Global()
                   .MakeFactory("PARTITIONED", {{"partitions", 0.0}})
                   .ok());
}

TEST(PolicyRegistryTest, FactoryProducesFreshInstances) {
  auto factory = PolicyRegistry::Global().MakeFactory("KAIROS");
  ASSERT_TRUE(factory.ok());
  const auto a = (*factory)();
  const auto b = (*factory)();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->Name(), "KAIROS");
}

// ---------------------------------------------------------------------------
// PlannerRegistry / PlannerBackend
// ---------------------------------------------------------------------------

TEST(PlannerRegistryTest, ListsTheFourBackends) {
  const auto names = PlannerRegistry::Global().ListNames();
  for (const char* expected :
       {"KAIROS", "KAIROS+", "HOMOGENEOUS", "BRUTE-FORCE"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing backend " << expected;
  }
  EXPECT_TRUE(PlannerRegistry::Global().Contains("kairos+"));
  const auto unknown = PlannerRegistry::Global().Build("SIMPLEX");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("KAIROS+"), std::string::npos);
}

class PlannerBackendTest : public ::testing::Test {
 protected:
  PlannerBackendTest()
      : catalog_(Catalog::PaperPool()),
        spec_(latency::FindModel("RM2")),
        truth_(spec_.Instantiate(catalog_)),
        monitor_(core::MonitorFromMix(workload::LogNormalBatches::Production(),
                                      5000, 7)) {}

  core::PlannerContext Context(double budget = 2.5) const {
    return core::PlannerContext{&catalog_, &truth_, spec_.qos_ms, budget};
  }

  const Catalog catalog_;
  const latency::ModelSpec& spec_;
  latency::LatencyModel truth_;
  workload::QueryMonitor monitor_;
};

TEST_F(PlannerBackendTest, OneShotKairosMatchesPlannerFacade) {
  auto backend = PlannerRegistry::Global().Build("KAIROS");
  ASSERT_TRUE(backend.ok());
  core::PlanRequest request;
  request.monitor = &monitor_;
  const auto outcome = (*backend)->Plan(Context(), request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->evaluations, 0u);
  EXPECT_GT(outcome->expected_qps, 0.0);
  ASSERT_TRUE(outcome->plan.has_value());
  // The facade plans through the same one-shot pass: a session warmed with
  // the fixture's draws picks the same configuration at the same rank.
  auto session = core::Kairos::Create(
      catalog_, "RM2", core::KairosOptions{.monitor_warmup = 5000, .seed = 7});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  session->ObserveMix(workload::LogNormalBatches::Production());
  ASSERT_EQ(session->monitor().MeanBatch(), monitor_.MeanBatch());
  const auto direct = session->PlanConfiguration();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(outcome->config, direct->config);
  EXPECT_EQ(outcome->plan->selection.chosen_rank,
            direct->selection.chosen_rank);
}

TEST_F(PlannerBackendTest, EvaluationBackendsRequireEval) {
  for (const std::string& name : {"KAIROS+", "BRUTE-FORCE"}) {
    auto backend = PlannerRegistry::Global().Build(name);
    ASSERT_TRUE(backend.ok());
    EXPECT_TRUE((*backend)->NeedsEvaluations());
    core::PlanRequest request;
    request.monitor = &monitor_;
    const auto outcome = (*backend)->Plan(Context(), request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition)
        << name;
    // An eval fn with no evaluation allowed leaves no measured config to
    // return.
    request.eval = [](const Config&) { return 1.0; };
    request.search.max_evals = 0;
    const auto no_evals = (*backend)->Plan(Context(), request);
    ASSERT_FALSE(no_evals.ok()) << name;
    EXPECT_EQ(no_evals.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST_F(PlannerBackendTest, EvaluationBackendsFindTheSyntheticOptimum) {
  // Synthetic monotone eval: more instances is better, so the optimum is
  // a budget-exhausting config and every backend must find a good one.
  const search::EvalFn eval = [](const Config& c) {
    return static_cast<double>(c.TotalInstances());
  };
  for (const std::string& name : {"KAIROS+", "BRUTE-FORCE"}) {
    auto backend = PlannerRegistry::Global().Build(name);
    ASSERT_TRUE(backend.ok());
    core::PlanRequest request;
    request.monitor = &monitor_;
    request.eval = eval;
    request.search.max_evals = 64;
    const auto outcome = (*backend)->Plan(Context(), request);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status().ToString();
    EXPECT_GT(outcome->evaluations, 0u) << name;
    EXPECT_LE(outcome->evaluations, 64u) << name;
    EXPECT_GT(outcome->config.TotalInstances(), 1) << name;
    EXPECT_LE(outcome->config.CostPerHour(catalog_), 2.5 + 1e-9) << name;
  }
}

TEST_F(PlannerBackendTest, HomogeneousBackendBuysBaseInstancesOnly) {
  auto backend = PlannerRegistry::Global().Build("HOMOGENEOUS");
  ASSERT_TRUE(backend.ok());
  core::PlanRequest request;
  request.monitor = &monitor_;
  const auto outcome = (*backend)->Plan(Context(), request);
  ASSERT_TRUE(outcome.ok());
  const cloud::TypeId base = catalog_.BaseType();
  EXPECT_GT(outcome->config.Count(base), 0);
  for (const cloud::TypeId aux : catalog_.AuxiliaryTypes()) {
    EXPECT_EQ(outcome->config.Count(aux), 0);
  }
}

TEST_F(PlannerBackendTest, InfeasibleBudgetIsStatusNotThrow) {
  auto backend = PlannerRegistry::Global().Build("KAIROS");
  ASSERT_TRUE(backend.ok());
  core::PlanRequest request;
  request.monitor = &monitor_;
  const auto outcome = (*backend)->Plan(Context(/*budget=*/0.01), request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInfeasible);

  // Every backend's Plan and Probe, including HOMOGENEOUS's own pick,
  // with the eval fn the evaluation backends need.
  request.eval = [](const Config&) { return 1.0; };
  for (const std::string& name : PlannerRegistry::Global().ListNames()) {
    auto each = PlannerRegistry::Global().Build(name);
    ASSERT_TRUE(each.ok()) << name;
    std::optional<StatusOr<core::PlannerOutcome>> plan;
    std::optional<StatusOr<core::PlannerOutcome>> probe;
    EXPECT_NO_THROW(plan.emplace((*each)->Plan(Context(0.01), request)))
        << name;
    EXPECT_NO_THROW(probe.emplace((*each)->Probe(Context(0.01), request)))
        << name;
    ASSERT_TRUE(plan.has_value() && probe.has_value()) << name;
    EXPECT_EQ(plan->status().code(), StatusCode::kInfeasible) << name;
    EXPECT_EQ(probe->status().code(), StatusCode::kInfeasible) << name;
  }
}

// ---------------------------------------------------------------------------
// Kairos::Create
// ---------------------------------------------------------------------------

TEST(KairosCreateTest, UnknownModelIsNotFoundListingZoo) {
  const Catalog catalog = Catalog::PaperPool();
  const auto result = core::Kairos::Create(catalog, "LLAMA");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("RM2"), std::string::npos);
  EXPECT_NE(result.status().message().find("DIEN"), std::string::npos);
}

TEST(KairosCreateTest, ValidModelPlansAndBadOptionsAreRefused) {
  const Catalog catalog = Catalog::PaperPool();
  auto created = core::Kairos::Create(catalog, "WND");
  ASSERT_TRUE(created.ok());
  created->ObserveMix(workload::LogNormalBatches::Production());
  const auto plan = created->PlanConfiguration();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(plan->config.CostPerHour(catalog), 2.5 + 1e-9);

  const auto bad_options = core::Kairos::Create(
      catalog, "WND", core::KairosOptions{.qos_scale = -1.0});
  ASSERT_FALSE(bad_options.ok());
  EXPECT_EQ(bad_options.status().code(), StatusCode::kInvalidArgument);

  // A budget the planner would reject, and a monitor with no window, are
  // refused up front instead of throwing (now or at the first plan).
  for (const core::KairosOptions& bad :
       {core::KairosOptions{.budget_per_hour = 0.0},
        core::KairosOptions{.monitor_warmup = 0}}) {
    std::optional<StatusOr<core::Kairos>> refused;
    EXPECT_NO_THROW(refused.emplace(core::Kairos::Create(catalog, "RM2", bad)));
    ASSERT_TRUE(refused.has_value());
    ASSERT_FALSE(refused->ok());
    EXPECT_EQ(refused->status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

std::vector<core::FleetModelOptions> TwoModelFleet() {
  core::FleetModelOptions rm2;
  rm2.model = "RM2";
  rm2.weight = 2.0;
  rm2.monitor_warmup = 4000;
  core::FleetModelOptions wnd;
  wnd.model = "WND";
  wnd.weight = 1.0;
  wnd.monitor_warmup = 4000;
  return {rm2, wnd};
}

TEST(FleetTest, CreateValidationErrors) {
  const Catalog catalog = Catalog::PaperPool();

  auto empty = Fleet::Create(catalog, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto models = TwoModelFleet();
  models[1].model = "LLAMA";
  auto unknown = Fleet::Create(catalog, models);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("RM2"), std::string::npos);

  models = TwoModelFleet();
  models[0].weight = 0.0;
  auto bad_weight = Fleet::Create(catalog, models);
  ASSERT_FALSE(bad_weight.ok());
  EXPECT_EQ(bad_weight.status().code(), StatusCode::kInvalidArgument);

  models = TwoModelFleet();
  models[1].model = "RM2";
  auto dup = Fleet::Create(catalog, models);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  models = TwoModelFleet();
  models[1].monitor_warmup = 0;
  std::optional<StatusOr<Fleet>> no_window;
  EXPECT_NO_THROW(no_window.emplace(Fleet::Create(catalog, models)));
  ASSERT_TRUE(no_window.has_value());
  ASSERT_FALSE(no_window->ok());
  EXPECT_EQ(no_window->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(no_window->status().message().rfind("model WND: ", 0), 0u)
      << no_window->status().message();

  core::FleetOptions options;
  options.planner = "SIMPLEX";
  auto bad_planner = Fleet::Create(catalog, TwoModelFleet(), options);
  ASSERT_FALSE(bad_planner.ok());
  EXPECT_EQ(bad_planner.status().code(), StatusCode::kNotFound);
}

TEST(FleetTest, TinyBudgetShareIsInfeasible) {
  const Catalog catalog = Catalog::PaperPool();
  core::FleetOptions options;
  // Split 2:1 of $1.2/hr: RM2's $0.8 buys a base G1 ($0.526), WND's $0.4
  // cannot — the fleet must refuse with the model named.
  options.budget_per_hour = 1.2;
  auto fleet = Fleet::Create(catalog, TwoModelFleet(), options);
  ASSERT_FALSE(fleet.ok());
  EXPECT_EQ(fleet.status().code(), StatusCode::kInfeasible);
  EXPECT_NE(fleet.status().message().find("WND"), std::string::npos);
}

TEST(FleetTest, BudgetSplitInvariants) {
  const Catalog catalog = Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 5.0;
  auto fleet = Fleet::Create(catalog, TwoModelFleet(), options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->size(), 2u);

  // Each session holds its weight-proportional share, and the shares
  // sum to the global budget.
  const auto rm2 = fleet->Session("RM2");
  const auto wnd = fleet->Session("WND");
  ASSERT_TRUE(rm2.ok());
  ASSERT_TRUE(wnd.ok());
  const double rm2_budget = (*rm2)->options().budget_per_hour;
  const double wnd_budget = (*wnd)->options().budget_per_hour;
  EXPECT_NEAR(rm2_budget, 2.0 * wnd_budget, 1e-9);
  EXPECT_LE(rm2_budget + wnd_budget, options.budget_per_hour + 1e-9);
  EXPECT_EQ(fleet->Session("DIEN").status().code(), StatusCode::kNotFound);

  // Planning before observing any workload is a sequencing error.
  const auto premature = fleet->PlanAll();
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);

  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->models.size(), 2u);

  double share_sum = 0.0;
  double cost_sum = 0.0;
  for (const core::FleetModelPlan& m : plan->models) {
    // Each model's chosen config fits its own share (so the fleet as a
    // whole fits the global budget), keeps >= 1 base instance (QoS
    // feasibility for the largest batches), and carries a positive
    // upper-bound estimate.
    EXPECT_LE(m.cost_per_hour, m.budget_per_hour + 1e-9) << m.model;
    EXPECT_GE(m.outcome.config.Count(catalog.BaseType()), 1) << m.model;
    EXPECT_GT(m.outcome.expected_qps, 0.0) << m.model;
    EXPECT_GT(m.qos_ms, 0.0) << m.model;
    share_sum += m.budget_per_hour;
    cost_sum += m.cost_per_hour;
  }
  EXPECT_LE(share_sum, plan->budget_per_hour + 1e-9);
  EXPECT_NEAR(cost_sum, plan->total_cost_per_hour, 1e-9);
  EXPECT_LE(plan->total_cost_per_hour, plan->budget_per_hour + 1e-9);
}

TEST(FleetTest, ZeroMaxEvalsIsStatusNotThrow) {
  // An evaluation-driven planner allowed no evaluation has no config to
  // plan. PlanAll must report that as the model's Status, not throw.
  const Catalog catalog = Catalog::PaperPool();
  core::FleetModelOptions rm2;
  rm2.model = "RM2";
  rm2.monitor_warmup = 2000;
  search::SearchOptions search;
  search.max_evals = 0;
  for (const char* planner : {"KAIROS+", "BRUTE-FORCE"}) {
    core::FleetOptions options;
    options.budget_per_hour = 3.0;
    options.planner = planner;
    auto fleet = Fleet::Create(catalog, {rm2}, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    fleet->ObserveMixAll(workload::LogNormalBatches::Production());
    std::optional<StatusOr<core::FleetPlan>> plan;
    EXPECT_NO_THROW(plan.emplace(fleet->PlanAll(search))) << planner;
    ASSERT_TRUE(plan.has_value()) << planner;
    ASSERT_FALSE(plan->ok()) << planner;
    EXPECT_EQ(plan->status().code(), StatusCode::kInvalidArgument) << planner;
    EXPECT_EQ(plan->status().message().rfind("model RM2: ", 0), 0u)
        << plan->status().message();
  }
}

TEST(FleetTest, MeasureAllReportsEveryModel) {
  const Catalog catalog = Catalog::PaperPool();
  auto models = TwoModelFleet();
  for (auto& m : models) m.monitor_warmup = 2000;
  core::FleetOptions options;
  options.budget_per_hour = 5.0;
  auto fleet = Fleet::Create(catalog, models, options);
  ASSERT_TRUE(fleet.ok());
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok());

  serving::EvalOptions eval;
  eval.queries = 200;  // smoke fidelity
  eval.bisect_iters = 3;
  const auto measured = fleet->MeasureAll(
      *plan, workload::LogNormalBatches::Production(), eval);
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  ASSERT_EQ(measured->models.size(), 2u);
  double sum = 0.0;
  for (const auto& m : measured->models) {
    EXPECT_GT(m.result.qps, 0.0) << m.model;
    sum += m.result.qps;
  }
  EXPECT_NEAR(sum, measured->total_qps, 1e-9);

  // Deploying a planned config through the model's session builds its
  // engine; unknown models surface as kNotFound.
  const auto session = fleet->Session("RM2");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto engine = (*session)->Deploy(plan->models[0].outcome.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->target_config(), plan->models[0].outcome.config);
  EXPECT_EQ(fleet->Session("DIEN").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kairos
