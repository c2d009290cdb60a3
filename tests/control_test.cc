// Control-plane coverage (DESIGN.md Sec. 10): the ControllerRegistry
// contract, WindowedMetrics percentile fields on sparse windows, the
// determinism contract (identical ControlAction sequences for every
// serve_threads), and the closed-loop behavior of the QOS / BACKLOG /
// DRIFT / SHED controllers on a live fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "control/controllers.h"
#include "core/fleet.h"
#include "or_throw.h"
#include "policy/kairos_policy.h"
#include "telemetry/telemetry.h"

namespace kairos::control {
namespace {

// --- Registry contract. ---

TEST(ControllerRegistryTest, ListsTheBuiltInControllers) {
  const std::vector<std::string> names =
      ControllerRegistry::Global().ListNames();
  const std::vector<std::string> expected = {"BACKLOG", "COMPOSITE", "DRIFT",
                                             "PERIODIC", "QOS", "SHED"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(std::count(names.begin(), names.end(), name) == 1)
        << name << " missing from the registry";
  }
  EXPECT_TRUE(ControllerRegistry::Global().Contains("qos"));  // case folds
}

TEST(ControllerRegistryTest, UnknownNameListsAlternatives) {
  auto built = ControllerRegistry::Global().Build("PID");
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("PERIODIC"), std::string::npos);
  EXPECT_NE(built.status().message().find("QOS"), std::string::npos);
}

TEST(ControllerRegistryTest, KnobsAreDeclaredAndValidated) {
  const auto info = ControllerRegistry::Global().Info("QOS");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->knobs.count("p99_scale"), 1u);

  auto unknown_knob = ControllerRegistry::Global().Build("QOS", {{"gain", 2.0}});
  EXPECT_EQ(unknown_knob.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_knob.status().message().find("p99_scale"),
            std::string::npos);

  EXPECT_EQ(ControllerRegistry::Global()
                .Build("PERIODIC", {{"period_s", -1.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ControllerRegistry::Global()
                .Build("COMPOSITE",
                       {{"qos", 0.0}, {"backlog", 0.0}, {"drift", 0.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  auto tuned = ControllerRegistry::Global().Build(
      "backlog", {{"backlog_s", 0.5}, {"min_backlog", 4.0}});
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  EXPECT_EQ((*tuned)->Name(), "BACKLOG");

  const auto shed_info = ControllerRegistry::Global().Info("SHED");
  ASSERT_TRUE(shed_info.ok());
  EXPECT_EQ(shed_info->knobs.count("deadline_scale"), 1u);
  EXPECT_EQ(ControllerRegistry::Global()
                .Build("SHED", {{"p99_scale", -1.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // FAILOVER v2: the borrowing/hysteresis knobs are declared, bounded,
  // and forwarded by COMPOSITE. A full borrow_fraction of 1 would leave
  // the borrower with nothing of its own to repay from; >= 1 rejected.
  const auto failover_info = ControllerRegistry::Global().Info("FAILOVER");
  ASSERT_TRUE(failover_info.ok());
  EXPECT_EQ(failover_info->knobs.count("borrow_fraction"), 1u);
  EXPECT_EQ(failover_info->knobs.count("cooldown_windows"), 1u);
  EXPECT_EQ(failover_info->knobs.count("recovery_windows"), 1u);
  for (const char* name : {"FAILOVER", "COMPOSITE"}) {
    EXPECT_EQ(ControllerRegistry::Global()
                  .Build(name, {{"borrow_fraction", 1.0}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(ControllerRegistry::Global()
                  .Build(name, {{"borrow_fraction", -0.1}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(ControllerRegistry::Global()
                  .Build(name, {{"cooldown_windows", -1.0}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(ControllerRegistry::Global()
                .Build("FAILOVER", {{"recovery_windows", 0.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto tuned_failover = ControllerRegistry::Global().Build(
      "FAILOVER", {{"borrow_fraction", 0.4}, {"cooldown_windows", 4.0}});
  ASSERT_TRUE(tuned_failover.ok()) << tuned_failover.status().ToString();
  EXPECT_EQ((*tuned_failover)->Name(), "FAILOVER");
}

// --- WindowedMetrics on sparse windows. ---

serving::SystemSpec SparseSpec(const cloud::Catalog& catalog,
                               const latency::LatencyModel& model) {
  serving::SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = cloud::Config({1});
  spec.truth = &model;
  spec.qos_ms = 200.0;
  return spec;
}

TEST(SparseWindowTest, EmptyWindowReportsZeroPercentiles) {
  cloud::Catalog catalog;
  catalog.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  const latency::LatencyModel model({{10.0, 0.1}});
  auto engine = OrThrow(serving::Engine::Create(
      SparseSpec(catalog, model), std::make_unique<policy::KairosPolicy>()));

  // A window that saw no arrivals and no completions at all.
  engine->AdvanceTo(5.0);
  const serving::WindowedMetrics empty = engine->TakeWindow();
  EXPECT_EQ(empty.offered, 0u);
  EXPECT_EQ(empty.served, 0u);
  EXPECT_EQ(empty.violations, 0u);
  EXPECT_EQ(empty.p99_ms, 0.0);
  EXPECT_EQ(empty.mean_ms, 0.0);
  EXPECT_EQ(empty.mean_batch, 0.0);
  EXPECT_EQ(empty.qps, 0.0);
  EXPECT_EQ(empty.offered_qps, 0.0);
  EXPECT_EQ(engine->Backlog(), 0u);
}

TEST(SparseWindowTest, SingleCompletionWindowPinsPercentilesToIt) {
  cloud::Catalog catalog;
  catalog.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  const latency::LatencyModel model({{10.0, 0.1}});
  auto engine = OrThrow(serving::Engine::Create(
      SparseSpec(catalog, model), std::make_unique<policy::KairosPolicy>()));

  ASSERT_TRUE(engine->Submit(workload::Query{1, 40, 5.5}).ok());
  EXPECT_EQ(engine->Backlog(), 1u);
  engine->AdvanceTo(10.0);
  const serving::WindowedMetrics one = engine->TakeWindow();
  EXPECT_EQ(one.offered, 1u);
  EXPECT_EQ(one.served, 1u);
  // One completion: every percentile *is* that completion's latency
  // (10ms base + 0.1ms/item * 40 items, no queueing; the sec<->ms round
  // trip through the simulated clock costs a few ulps).
  EXPECT_NEAR(one.p99_ms, 14.0, 1e-9);
  EXPECT_DOUBLE_EQ(one.p99_ms, one.mean_ms);
  EXPECT_DOUBLE_EQ(one.mean_batch, 40.0);
  EXPECT_EQ(one.violations, 0u);
  EXPECT_EQ(engine->Backlog(), 0u);
  EXPECT_EQ(engine->Served(), 1u);
}

// --- Closed-loop fleet behavior. ---

/// The fig17 fleet: RM2 (the model that will spike), WND, and a
/// double-traffic NCF under one $8/hr MARGINAL budget.
core::Fleet SpikeFleet() {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 8.0;
  options.allocator = "MARGINAL";
  auto fleet = core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"},
       core::FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  return *std::move(fleet);
}

/// The fig17 scenario: RM2's arrival rate jumps 6x at t=18s.
core::FleetServeOptions SpikeServe(const std::string& controller) {
  core::FleetServeOptions serve;
  serve.duration_s = 60.0;
  serve.base_rate_qps = 10.0;
  serve.window_s = 3.0;
  serve.launch_lag_s = 1.0;
  serve.shifts = {core::FleetLoadShift{18.0, "RM2", 6.0}};
  serve.controller = controller;
  if (controller == "PERIODIC") serve.controller_knobs = {{"period_s", 40.0}};
  return serve;
}

std::size_t ViolationWindows(const core::Fleet& fleet,
                             const core::FleetServeResult& result) {
  std::size_t violations = 0;
  for (const core::FleetModelServe& model : result.models) {
    const auto session = fleet.Session(model.model);
    EXPECT_TRUE(session.ok());
    for (const serving::WindowedMetrics& window : model.windows) {
      if (window.served > 0 && window.p99_ms > (*session)->qos_ms()) {
        ++violations;
      }
    }
  }
  return violations;
}

TEST(FleetControlTest, ControlActionSequenceIsIdenticalAcrossServeThreads) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  for (const std::string controller : {"QOS", "BACKLOG", "COMPOSITE", "SHED"}) {
    core::FleetServeOptions serve = SpikeServe(controller);
    serve.serve_threads = 1;
    const auto serial = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_FALSE(serial->control_log.empty())
        << controller << " never fired on the spike scenario";
    for (const std::size_t threads : {4u, 8u}) {
      serve.serve_threads = threads;
      const auto threaded = fleet.ServeAll(*plan, serve);
      ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
      EXPECT_EQ(threaded->reallocations, serial->reallocations);
      EXPECT_EQ(threaded->monitor_resets, serial->monitor_resets);
      EXPECT_EQ(threaded->shed_actions, serial->shed_actions);
      EXPECT_EQ(threaded->total_weighted_qps, serial->total_weighted_qps);
      ASSERT_EQ(threaded->control_log.size(), serial->control_log.size())
          << controller << " with " << threads << " threads";
      for (std::size_t e = 0; e < serial->control_log.size(); ++e) {
        const core::FleetControlEvent& a = serial->control_log[e];
        const core::FleetControlEvent& b = threaded->control_log[e];
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.model, b.model);
        EXPECT_EQ(a.reason, b.reason);
      }
    }
  }
}

TEST(FleetControlTest, QosControllerReactsFasterThanThePeriodicTimer) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  const auto periodic = fleet.ServeAll(*plan, SpikeServe("PERIODIC"));
  ASSERT_TRUE(periodic.ok()) << periodic.status().ToString();
  core::FleetServeOptions qos_serve = SpikeServe("QOS");
  // 10% hysteresis margin (as in fig17): the initial plan runs RM2 close
  // enough to its QoS bound that the default hair-trigger fires on a
  // marginal pre-spike window; with the margin the fire is the spike
  // reaction itself, which is the mechanism this test pins.
  qos_serve.controller_knobs = {{"p99_scale", 1.1}};
  const auto qos = fleet.ServeAll(*plan, qos_serve);
  ASSERT_TRUE(qos.ok()) << qos.status().ToString();

  // Same arrivals, same budget — only the trigger differs.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(qos->models[j].totals.offered,
              periodic->models[j].totals.offered);
  }
  // The closed loop reacts to the t=18s spike within a couple of
  // windows, well before the open-loop timer's t=40s barrier...
  ASSERT_FALSE(qos->control_log.empty());
  EXPECT_GT(qos->control_log.front().time, 18.0);
  EXPECT_LT(qos->control_log.front().time, 40.0);
  EXPECT_NE(qos->control_log.front().reason.find("p99"), std::string::npos);
  // ...and converts that headstart into strictly fewer violation windows
  // at no extra reallocation cost.
  EXPECT_LT(ViolationWindows(fleet, *qos), ViolationWindows(fleet, *periodic));
  EXPECT_LE(qos->reallocations, periodic->reallocations);
  EXPECT_GE(qos->total_weighted_qps, periodic->total_weighted_qps - 1e-9);
}

TEST(FleetControlTest, BacklogControllerScalesOnQueueDepth) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  const auto frozen = fleet.ServeAll(*plan, SpikeServe(""));
  ASSERT_TRUE(frozen.ok());
  const auto backlog = fleet.ServeAll(*plan, SpikeServe("BACKLOG"));
  ASSERT_TRUE(backlog.ok()) << backlog.status().ToString();

  EXPECT_EQ(frozen->reallocations, 0u);
  ASSERT_GE(backlog->reallocations, 1u);
  // Fired after the spike (no backlog builds before it) with a stated
  // backlog trigger.
  EXPECT_GT(backlog->control_log.front().time, 18.0);
  EXPECT_NE(backlog->control_log.front().reason.find("backlog"),
            std::string::npos);
  EXPECT_LT(ViolationWindows(fleet, *backlog),
            ViolationWindows(fleet, *frozen));
  EXPECT_GT(backlog->total_weighted_qps, frozen->total_weighted_qps);
}

TEST(FleetControlTest, ShedControllerDegradesGracefullyAtEqualCost) {
  // A transient 6x spike on RM2 (t=18s..36s). The shed-blind baseline
  // lets the queue grow unboundedly: every queued query inherits the
  // wait of everything ahead, so p99 violations persist long after the
  // spike ends while the backlog drains. SHED trades completeness for
  // latency — with deadline_scale 0.9 only queries that can finish
  // inside QoS are kept — and restores full admission once healthy.
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::FleetServeOptions frozen_serve = SpikeServe("");
  frozen_serve.shifts.push_back(core::FleetLoadShift{36.0, "RM2", 1.0});
  const auto frozen = fleet.ServeAll(*plan, frozen_serve);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  core::FleetServeOptions shed_serve = frozen_serve;
  shed_serve.controller = "SHED";
  // p99_scale 1.1 is the same hysteresis margin the QOS test uses: the
  // initial plan runs RM2 close enough to its bound that the default
  // hair-trigger fires on a marginal pre-spike window.
  shed_serve.controller_knobs = {{"deadline_scale", 0.9}, {"p99_scale", 1.1}};
  const auto shed = fleet.ServeAll(*plan, shed_serve);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();

  // Equal cost: SHED never reallocates, so both runs ride the initial
  // plan and bill identically — degradation is bought with sheds, not
  // dollars.
  EXPECT_EQ(shed->reallocations, 0u);
  EXPECT_DOUBLE_EQ(shed->ondemand_cost_usd, frozen->ondemand_cost_usd);
  EXPECT_DOUBLE_EQ(shed->effective_cost_usd, frozen->effective_cost_usd);

  // The knob was armed on the spike and lifted after recovery.
  ASSERT_GE(shed->shed_actions, 2u);
  ASSERT_FALSE(shed->control_log.empty());
  EXPECT_GT(shed->control_log.front().time, 18.0);
  EXPECT_NE(shed->control_log.front().reason.find("shedding at deadline"),
            std::string::npos);
  bool restored = false;
  for (const core::FleetControlEvent& event : shed->control_log) {
    if (event.reason.find("restoring full admission") != std::string::npos) {
      restored = true;
    }
  }
  EXPECT_TRUE(restored) << "deadline was never lifted after recovery";

  // Same offered load; sheds happened; nothing lost or double-counted.
  std::size_t total_shed = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    const serving::RunResult& totals = shed->models[j].totals;
    EXPECT_EQ(totals.offered, frozen->models[j].totals.offered);
    EXPECT_LE(totals.served + totals.shed + totals.rejected, totals.offered);
    total_shed += totals.shed;
  }
  EXPECT_GT(total_shed, 0u);

  // The gate: strictly fewer p99-violation windows at equal cost.
  EXPECT_LT(ViolationWindows(fleet, *shed), ViolationWindows(fleet, *frozen));
}

TEST(FleetControlTest, DriftControllerResetsMisWarmedMonitors) {
  // Plan against the Gaussian sensitivity mix but serve PRODUCTION
  // traffic: the live mean batch sits ~50% away from the planning-time
  // snapshot, which is exactly the regime change DRIFT watches for.
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 8.0;
  options.allocator = "MARGINAL";
  auto fleet = core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"}},
      options);
  ASSERT_TRUE(fleet.ok());
  fleet->ObserveMixAll(workload::GaussianBatches::Default());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::FleetServeOptions serve;
  serve.duration_s = 40.0;
  serve.base_rate_qps = 12.0;
  serve.window_s = 4.0;
  serve.launch_lag_s = 1.0;
  serve.controller = "DRIFT";
  const auto result = fleet->ServeAll(*plan, serve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_GE(result->monitor_resets, 1u);
  ASSERT_GE(result->reallocations, 1u);
  // The log interleaves per-model resets with the replans they feed; the
  // first event must be a reset (the replan reads the post-reset mix).
  EXPECT_EQ(result->control_log.front().kind,
            ControlActionKind::kResetMonitor);
  EXPECT_FALSE(result->control_log.front().model.empty());
  EXPECT_NE(result->control_log.front().reason.find("drifted"),
            std::string::npos);

  // A well-warmed fleet on the same traffic never trips the detector.
  auto matched = core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"}},
      options);
  ASSERT_TRUE(matched.ok());
  matched->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto matched_plan = matched->PlanAll();
  ASSERT_TRUE(matched_plan.ok());
  const auto quiet = matched->ServeAll(*matched_plan, serve);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_EQ(quiet->monitor_resets, 0u);
  EXPECT_EQ(quiet->reallocations, 0u);
  EXPECT_TRUE(quiet->control_log.empty());
}

TEST(FleetControlTest, CompositeChainsAndDeduplicates) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  const auto result = fleet.ServeAll(*plan, SpikeServe("COMPOSITE"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->reallocations, 1u);
  // Child attribution is part of the reason; at most one reallocation
  // per barrier time survives the dedup.
  std::vector<Time> realloc_times;
  for (const core::FleetControlEvent& event : result->control_log) {
    if (event.kind != ControlActionKind::kReallocate) continue;
    EXPECT_NE(event.reason.find(": "), std::string::npos);
    EXPECT_EQ(std::count(realloc_times.begin(), realloc_times.end(),
                         event.time),
              0);
    realloc_times.push_back(event.time);
  }
}

TEST(FleetControlTest, PeriodicSafetyNetYieldsToClosedLoopSiblings) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  // COMPOSITE with a PERIODIC safety net: QOS fires early, so at the
  // 40s grid point the fleet is fresh and the net must skip rather than
  // double-fire a redundant re-split.
  core::FleetServeOptions serve = SpikeServe("COMPOSITE");
  serve.controller_knobs = {{"period_s", 40.0}};  // the PERIODIC child's
  const auto chained = fleet.ServeAll(*plan, serve);
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();
  ASSERT_GE(chained->reallocations, 1u);
  EXPECT_LT(chained->control_log.front().time, 40.0);
  for (const core::FleetControlEvent& event : chained->control_log) {
    EXPECT_EQ(event.reason.find("PERIODIC"), std::string::npos)
        << "safety net double-fired at " << event.time << "s";
  }

  // With every closed-loop child toggled off the net *is* the cadence:
  // COMPOSITE degenerates to the fixed timer.
  core::FleetServeOptions timer_only = SpikeServe("COMPOSITE");
  timer_only.controller_knobs = {{"qos", 0.0}, {"backlog", 0.0},
                                 {"drift", 0.0}, {"period_s", 20.0}};
  const auto periodic = fleet.ServeAll(*plan, timer_only);
  ASSERT_TRUE(periodic.ok()) << periodic.status().ToString();
  ASSERT_EQ(periodic->reallocations, 2u);  // t = 20, 40 inside 60s
  EXPECT_EQ(periodic->control_log[0].time, 20.0);
  EXPECT_EQ(periodic->control_log[1].time, 40.0);
  EXPECT_NE(periodic->control_log[0].reason.find("PERIODIC: fixed"),
            std::string::npos);
}

TEST(FleetControlTest, UnknownControllerAndBadKnobsSurfaceAsStatus) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  core::FleetServeOptions unknown = SpikeServe("PID");
  EXPECT_EQ(fleet.ServeAll(*plan, unknown).status().code(),
            StatusCode::kNotFound);

  core::FleetServeOptions bad_knob = SpikeServe("QOS");
  bad_knob.controller_knobs = {{"gain", 2.0}};
  EXPECT_EQ(fleet.ServeAll(*plan, bad_knob).status().code(),
            StatusCode::kInvalidArgument);

  // Knobs without a named controller would be silently dropped by a
  // frozen allocation; they are rejected instead. A period alone does not
  // name PERIODIC.
  core::FleetServeOptions orphan_knobs = SpikeServe("");
  orphan_knobs.controller_knobs = {{"period_s", 10.0}};
  EXPECT_EQ(fleet.ServeAll(*plan, orphan_knobs).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Malformed actions: the applier's one check. ---

/// A test-only controller. At its first decision it emits the one
/// malformed action its "case" knob selects, then nothing ever again.
/// "live_mix" sets NeedsLiveMix(); "reallocate_first" lists a well-formed
/// kReallocate ahead of the malformed action.
class MalformedController final : public FleetController {
 public:
  MalformedController(ControlAction action, bool live_mix,
                      bool reallocate_first)
      : action_(std::move(action)),
        live_mix_(live_mix),
        reallocate_first_(reallocate_first) {}

  std::string Name() const override { return "MALFORMED"; }
  bool NeedsLiveMix() const override { return live_mix_; }

  std::vector<ControlAction> Decide(const FleetTelemetry&) override {
    if (fired_) return {};
    fired_ = true;
    std::vector<ControlAction> actions;
    if (reallocate_first_) {
      ControlAction reallocate;
      reallocate.kind = ControlActionKind::kReallocate;
      reallocate.reason = "well-formed";
      actions.push_back(reallocate);
    }
    actions.push_back(action_);
    return actions;
  }

 private:
  ControlAction action_;
  bool live_mix_ = false;
  bool reallocate_first_ = false;
  bool fired_ = false;
};

/// The SpikeFleet serves 3 models, so model index 3 is out of range.
ControlAction MalformedAction(int which) {
  ControlAction action;
  action.model = 3;
  action.reason = "malformed on purpose";
  switch (which) {
    case 0: action.kind = ControlActionKind::kResetMonitor; break;
    case 1: action.kind = ControlActionKind::kBorrowBudget; break;
    case 2: action.kind = ControlActionKind::kRespread; break;
    case 3: action.kind = ControlActionKind::kFailover; break;
    case 4: action.kind = ControlActionKind::kSetShed; break;
    case 5:  // a negative borrow
      action.kind = ControlActionKind::kBorrowBudget;
      action.model = 0;
      action.amount_per_hour = -1.0;
      break;
    default:  // a reset while NeedsLiveMix() is false
      action.kind = ControlActionKind::kResetMonitor;
      action.model = 0;
      break;
  }
  return action;
}

const ControllerRegistrar kMalformed(
    ControllerInfo{"MALFORMED",
                   "test only: one malformed action at the first decision",
                   {{"case", 0.0},
                    {"live_mix", 0.0},
                    {"reallocate_first", 0.0}}},
    [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<FleetController>> {
      return std::unique_ptr<FleetController>(
          std::make_unique<MalformedController>(
              MalformedAction(static_cast<int>(knobs.at("case"))),
              knobs.at("live_mix") != 0.0,
              knobs.at("reallocate_first") != 0.0));
    });

TEST(FleetControlTest, MalformedActionsSurfaceAsStatus) {
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  struct Case {
    int which;
    bool live_mix;
    StatusCode code;
    std::string message;
  };
  const std::string out_of_range =
      ", but the served plan has 3 models";
  const std::vector<Case> cases = {
      {0, true, StatusCode::kInvalidArgument,
       "controller MALFORMED reset the monitor of model index 3" +
           out_of_range},
      {1, false, StatusCode::kInvalidArgument,
       "controller MALFORMED targeted model index 3 with BORROW_BUDGET" +
           out_of_range},
      {2, false, StatusCode::kInvalidArgument,
       "controller MALFORMED targeted model index 3 with RESPREAD" +
           out_of_range},
      {3, false, StatusCode::kInvalidArgument,
       "controller MALFORMED targeted model index 3 with FAILOVER" +
           out_of_range},
      {4, false, StatusCode::kInvalidArgument,
       "controller MALFORMED targeted model index 3 with SET_SHED" +
           out_of_range},
      {5, false, StatusCode::kInvalidArgument,
       "controller MALFORMED emitted BORROW_BUDGET with a negative amount (" +
           FormatDollarsPerHour(-1.0) + ")"},
      {6, false, StatusCode::kFailedPrecondition,
       "controller MALFORMED emitted kResetMonitor but NeedsLiveMix() is "
       "false, so no live mix exists to reset to"},
  };
  for (const Case& c : cases) {
    core::FleetServeOptions serve = SpikeServe("MALFORMED");
    serve.controller_knobs = {{"case", c.which},
                              {"live_mix", c.live_mix ? 1.0 : 0.0}};
    const auto served = fleet.ServeAll(*plan, serve);
    ASSERT_FALSE(served.ok()) << "case " << c.which;
    EXPECT_EQ(served.status().code(), c.code) << "case " << c.which;
    EXPECT_EQ(served.status().message(), c.message) << "case " << c.which;
  }
}

TEST(FleetControlTest, MalformedActionIsRejectedBeforeAnyActionApplies) {
  // A well-formed kReallocate listed ahead of a malformed kSetShed: the
  // barrier's actions are all checked before any is applied, so the
  // re-split never starts — no "fleet.realloc" or "fleet.replan" span.
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto tel = telemetry::Telemetry::Create({"RM2", "WND", "NCF"});
  ASSERT_TRUE(tel.ok()) << tel.status().ToString();

  core::FleetServeOptions serve = SpikeServe("MALFORMED");
  serve.controller_knobs = {{"case", 4.0}, {"reallocate_first", 1.0}};
  serve.telemetry = tel->get();
  const auto served = fleet.ServeAll(*plan, serve);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(served.status().message().find("SET_SHED"), std::string::npos);

  std::size_t decides = 0;
  std::size_t replans = 0;
  for (const telemetry::TraceEvent& event : (*tel)->tracer().AllEvents()) {
    if (event.name == "control.decide") ++decides;
    if (event.name == "fleet.realloc" || event.name == "fleet.replan") {
      ++replans;
    }
  }
  EXPECT_EQ(decides, 1u);
  EXPECT_EQ(replans, 0u);
}

// --- The loan ledger's repayments. ---

/// A test-only lender: borrows "amount" $/hr for model 0 at its first
/// decision and never repays; with "reallocate" set, it re-splits the
/// budget at its second decision.
class LenderController final : public FleetController {
 public:
  LenderController(double amount, bool reallocate)
      : amount_(amount), reallocate_(reallocate) {}

  std::string Name() const override { return "LENDER"; }

  std::vector<ControlAction> Decide(const FleetTelemetry&) override {
    ++decisions_;
    ControlAction action;
    if (decisions_ == 1) {
      action.kind = ControlActionKind::kBorrowBudget;
      action.model = 0;
      action.amount_per_hour = amount_;
      action.reason = "borrow, never repay";
      return {action};
    }
    if (decisions_ == 2 && reallocate_) {
      action.kind = ControlActionKind::kReallocate;
      action.reason = "re-split over the loan";
      return {action};
    }
    return {};
  }

 private:
  double amount_ = 0.0;
  bool reallocate_ = false;
  std::size_t decisions_ = 0;
};

const ControllerRegistrar kLender(
    ControllerInfo{"LENDER",
                   "test only: one loan at the first decision, never repaid",
                   {{"amount", 1.0}, {"reallocate", 0.0}}},
    [](const KnobMap& knobs) -> StatusOr<std::unique_ptr<FleetController>> {
      return std::unique_ptr<FleetController>(
          std::make_unique<LenderController>(knobs.at("amount"),
                                             knobs.at("reallocate") != 0.0));
    });

TEST(FleetControlTest, OutstandingLoansAreRepaidByReSplitOrAtTheHorizon) {
  // A loan the controller never repays is still repaid exactly once: by a
  // later re-split, which re-derives every share, or else by the horizon
  // force-repay, which returns the shares to the plan's split.
  const core::Fleet fleet = SpikeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const bool reallocate : {false, true}) {
    core::FleetServeOptions serve = SpikeServe("LENDER");
    serve.controller_knobs = {{"reallocate", reallocate ? 1.0 : 0.0}};
    const auto served = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->borrows, 1u) << "reallocate=" << reallocate;
    EXPECT_EQ(served->paybacks, 1u) << "reallocate=" << reallocate;
    EXPECT_EQ(served->reallocations, reallocate ? 1u : 0u);
    EXPECT_GT(served->budget_borrowed_per_hour, 0.0);
    EXPECT_EQ(served->budget_borrowed_per_hour,
              served->budget_repaid_per_hour);
    if (!reallocate) {
      ASSERT_EQ(served->final_shares_per_hour.size(), plan->models.size());
      for (std::size_t j = 0; j < plan->models.size(); ++j) {
        EXPECT_NEAR(served->final_shares_per_hour[j],
                    plan->models[j].budget_per_hour, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace kairos::control
