// Fleet::ServeAll coverage: all models co-simulated as shards of one
// shared event loop, deterministic replays, and the Fig. 12 acceptance
// property — MARGINAL periodic reallocation under a mid-run arrival-rate
// shift serves at least the total weighted QPS of the frozen-allocation
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "core/fleet.h"

namespace kairos::core {
namespace {

/// The Fig. 12 fleet: RM2 (the model whose load will shift), WND, and a
/// double-traffic NCF, under one $8/hr MARGINAL budget.
Fleet MakeFleet() {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  FleetOptions options;
  options.budget_per_hour = 8.0;
  options.allocator = "MARGINAL";
  auto fleet = Fleet::Create(
      catalog,
      {FleetModelOptions{.model = "RM2"}, FleetModelOptions{.model = "WND"},
       FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  return *std::move(fleet);
}

FleetServeOptions ShortServe() {
  FleetServeOptions options;
  options.duration_s = 10.0;
  options.base_rate_qps = 15.0;
  options.window_s = 2.5;
  return options;
}

TEST(FleetServeTest, ModelsShareOneClockAndWindowGrid) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto result = fleet.ServeAll(*plan, ShortServe());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->models.size(), 3u);
  EXPECT_DOUBLE_EQ(result->duration_s, 10.0);
  EXPECT_EQ(result->reallocations, 0u);
  for (const FleetModelServe& model : result->models) {
    EXPECT_GT(model.totals.offered, 0u);
    EXPECT_GT(model.qps, 0.0);
    EXPECT_LE(model.totals.makespan, 10.0 + 1e-9);
    ASSERT_EQ(model.windows.size(), 4u);
  }
  // Shards of one event loop: every model's windows close on the shared
  // grid, bit for bit.
  for (std::size_t w = 0; w < 4; ++w) {
    const Time end = result->models[0].windows[w].end;
    EXPECT_EQ(result->models[1].windows[w].end, end);
    EXPECT_EQ(result->models[2].windows[w].end, end);
  }
  const double sum = result->models[0].qps + result->models[1].qps +
                     result->models[2].qps;
  EXPECT_NEAR(result->total_qps, sum, 1e-9);
  // NCF carries arrival_scale 2: the demand-weighted aggregate counts it
  // twice, like FleetMeasurement::total_weighted_qps.
  EXPECT_NEAR(result->total_weighted_qps, sum + result->models[2].qps, 1e-9);
}

TEST(FleetServeTest, ReplaysAreDeterministic) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());
  const auto a = fleet.ServeAll(*plan, ShortServe());
  const auto b = fleet.ServeAll(*plan, ShortServe());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_weighted_qps, b->total_weighted_qps);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(a->models[j].totals.offered, b->models[j].totals.offered);
    EXPECT_EQ(a->models[j].totals.served, b->models[j].totals.served);
    EXPECT_EQ(a->models[j].totals.p99_ms, b->models[j].totals.p99_ms);
  }
}

// The Fig. 12 acceptance property. One continuous co-simulation; RM2's
// arrival rate jumps 5x at t=30s. The identical arrival schedule is
// served twice: with the initial allocation frozen, and with MARGINAL
// re-invoked every 10s on observed rates. Adaptation must not lose
// throughput — and under this saturating shift it must win outright.
TEST(FleetServeTest, MarginalReallocationBeatsFrozenUnderLoadShift) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  FleetServeOptions serve;
  serve.duration_s = 60.0;
  serve.base_rate_qps = 18.0;
  serve.window_s = 5.0;
  serve.launch_lag_s = 1.0;
  serve.shifts = {FleetLoadShift{30.0, "RM2", 5.0}};

  auto frozen = fleet.ServeAll(plan.value(), serve);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", 10.0}};
  auto adaptive = fleet.ServeAll(plan.value(), serve);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();

  // Both runs saw the same arrivals — the shift changed offered load, the
  // allocator only changes service.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(adaptive->models[j].totals.offered,
              frozen->models[j].totals.offered);
  }
  EXPECT_EQ(frozen->reallocations, 0u);
  EXPECT_EQ(adaptive->reallocations, 5u);

  EXPECT_GE(adaptive->total_weighted_qps, frozen->total_weighted_qps);
  // The win is substantial, not a tie: frozen RM2 flatlines at its planned
  // capacity while adaptive reallocation absorbs the 5x jump.
  EXPECT_GT(adaptive->total_weighted_qps, 1.1 * frozen->total_weighted_qps);
  EXPECT_GT(adaptive->models[0].qps, 2.0 * frozen->models[0].qps);

  // Reallocation respects the envelope and reacts to RM2's demand.
  double total_share = 0.0;
  for (const double share : adaptive->final_shares_per_hour) {
    total_share += share;
  }
  EXPECT_LE(total_share, fleet.options().budget_per_hour + 1e-9);
  EXPECT_GT(adaptive->final_shares_per_hour[0],
            plan->models[0].budget_per_hour);
}

TEST(FleetServeTest, WindowGridHasNoFloatingPointDuplicateAtHorizon) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());
  FleetServeOptions serve;
  serve.duration_s = 5.0;
  serve.base_rate_qps = 15.0;
  // 5/12 is not representable in binary: accumulating it must not
  // schedule a spurious zero-width 13th window just below the horizon.
  serve.window_s = 5.0 / 12.0;
  const auto result = fleet.ServeAll(*plan, serve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const FleetModelServe& model : result->models) {
    ASSERT_EQ(model.windows.size(), 12u);
    EXPECT_GT(model.windows.back().end - model.windows.back().start, 0.1);
  }
}

TEST(FleetServeTest, ReallocationWorksWithEvaluationDrivenPlanners) {
  // KAIROS+ needs a real evaluator; the rebalance loop must wire one the
  // same way PlanAll does instead of dying with FAILED_PRECONDITION.
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  FleetOptions options;
  options.budget_per_hour = 4.0;
  options.allocator = "MARGINAL";
  options.planner = "KAIROS+";
  auto fleet = Fleet::Create(catalog,
                             {FleetModelOptions{.model = "RM2"},
                              FleetModelOptions{.model = "WND"}},
                             options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  search::SearchOptions search;
  search.max_evals = 4;
  const auto plan = fleet->PlanAll(search);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  FleetServeOptions serve;
  serve.duration_s = 10.0;
  serve.base_rate_qps = 10.0;
  serve.window_s = 5.0;
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", 5.0}};
  serve.search = search;
  const auto result = fleet->ServeAll(*plan, serve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reallocations, 1u);
}

/// Field-by-field bitwise equality of two serve results (windows, totals,
/// shares): the sharded loop must not leak any thread-count dependence.
void ExpectBitIdentical(const FleetServeResult& a, const FleetServeResult& b) {
  ASSERT_EQ(a.models.size(), b.models.size());
  EXPECT_EQ(a.total_qps, b.total_qps);
  EXPECT_EQ(a.total_weighted_qps, b.total_weighted_qps);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.monitor_resets, b.monitor_resets);
  ASSERT_EQ(a.control_log.size(), b.control_log.size());
  for (std::size_t e = 0; e < a.control_log.size(); ++e) {
    EXPECT_EQ(a.control_log[e].time, b.control_log[e].time);
    EXPECT_EQ(a.control_log[e].kind, b.control_log[e].kind);
    EXPECT_EQ(a.control_log[e].model, b.control_log[e].model);
    EXPECT_EQ(a.control_log[e].reason, b.control_log[e].reason);
  }
  ASSERT_EQ(a.final_shares_per_hour.size(), b.final_shares_per_hour.size());
  for (std::size_t j = 0; j < a.final_shares_per_hour.size(); ++j) {
    EXPECT_EQ(a.final_shares_per_hour[j], b.final_shares_per_hour[j]);
  }
  for (std::size_t j = 0; j < a.models.size(); ++j) {
    const FleetModelServe& ma = a.models[j];
    const FleetModelServe& mb = b.models[j];
    EXPECT_EQ(ma.model, mb.model);
    EXPECT_EQ(ma.qps, mb.qps);
    EXPECT_EQ(ma.totals.offered, mb.totals.offered);
    EXPECT_EQ(ma.totals.served, mb.totals.served);
    EXPECT_EQ(ma.totals.violations, mb.totals.violations);
    EXPECT_EQ(ma.totals.p99_ms, mb.totals.p99_ms);
    EXPECT_EQ(ma.totals.mean_ms, mb.totals.mean_ms);
    EXPECT_EQ(ma.totals.makespan, mb.totals.makespan);
    ASSERT_EQ(ma.windows.size(), mb.windows.size());
    for (std::size_t w = 0; w < ma.windows.size(); ++w) {
      EXPECT_EQ(ma.windows[w].start, mb.windows[w].start);
      EXPECT_EQ(ma.windows[w].end, mb.windows[w].end);
      EXPECT_EQ(ma.windows[w].offered, mb.windows[w].offered);
      EXPECT_EQ(ma.windows[w].served, mb.windows[w].served);
      EXPECT_EQ(ma.windows[w].violations, mb.windows[w].violations);
      EXPECT_EQ(ma.windows[w].p99_ms, mb.windows[w].p99_ms);
      EXPECT_EQ(ma.windows[w].mean_ms, mb.windows[w].mean_ms);
      EXPECT_EQ(ma.windows[w].offered_qps, mb.windows[w].offered_qps);
      EXPECT_EQ(ma.windows[w].qps, mb.windows[w].qps);
      EXPECT_EQ(ma.windows[w].mean_batch, mb.windows[w].mean_batch);
    }
  }
}

TEST(FleetServeTest, ServeThreadsAreBitIdentical) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  // A demanding schedule: load shift + periodic reallocation, so barrier
  // interleaving (windows, rebalances, engine reconfigurations) is all
  // exercised under threading.
  FleetServeOptions serve;
  serve.duration_s = 30.0;
  serve.base_rate_qps = 18.0;
  serve.window_s = 5.0;
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", 10.0}};
  serve.launch_lag_s = 1.0;
  serve.shifts = {FleetLoadShift{12.0, "RM2", 4.0}};

  serve.serve_threads = 1;
  const auto serial = fleet.ServeAll(*plan, serve);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    serve.serve_threads = threads;
    const auto threaded = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ExpectBitIdentical(*serial, *threaded);
  }
}

TEST(FleetServeTest, AliasesServeTheSameModelAsIndependentShards) {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  FleetOptions options;
  options.budget_per_hour = 8.0;
  auto fleet = Fleet::Create(catalog,
                             {FleetModelOptions{.model = "WND", .name = "WND-eu"},
                              FleetModelOptions{.model = "WND", .name = "WND-us"},
                              FleetModelOptions{.model = "NCF"}},
                             options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->models[0].model, "WND-eu");
  EXPECT_EQ(plan->models[1].model, "WND-us");

  FleetServeOptions serve = ShortServe();
  serve.shifts = {FleetLoadShift{2.0, "WND-us", 3.0}};  // by serving name
  const auto result = fleet->ServeAll(*plan, serve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The shifted shard sees more traffic than its twin; the twin's stream
  // is untouched (independent sources despite the shared zoo model).
  EXPECT_GT(result->models[1].totals.offered, result->models[0].totals.offered);

  // Duplicate serving names stay rejected.
  auto dup = Fleet::Create(catalog,
                           {FleetModelOptions{.model = "WND", .name = "X"},
                            FleetModelOptions{.model = "NCF", .name = "X"}},
                           options);
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

// The perf-opt acceptance property: sharding an 8-model fleet across 8
// threads must cut ServeAll wall-clock by >= 2x vs one thread, with
// bit-identical metrics. Wall-clock needs real cores; skip on small hosts
// (bench/perf_suite measures the same thing into BENCH_perf.json anywhere).
TEST(FleetServeTest, EightShardServeAllScalesAtLeastTwofold) {
  if (std::thread::hardware_concurrency() < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads for a meaningful speedup";
  }
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  FleetOptions options;
  options.budget_per_hour = 24.0;
  auto fleet = Fleet::Create(
      catalog,
      {FleetModelOptions{.model = "NCF"}, FleetModelOptions{.model = "RM2"},
       FleetModelOptions{.model = "WND"}, FleetModelOptions{.model = "MT-WND"},
       FleetModelOptions{.model = "DIEN"},
       FleetModelOptions{.model = "NCF", .name = "NCF-B"},
       FleetModelOptions{.model = "WND", .name = "WND-B"},
       FleetModelOptions{.model = "RM2", .name = "RM2-B"}},
      options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  FleetServeOptions serve;
  serve.duration_s = 40.0;
  serve.base_rate_qps = 60.0;
  serve.window_s = 5.0;

  // Best-of-two timing per thread count (after a warm-up pass) so a
  // transient scheduling hiccup on a busy machine cannot fail the ratio.
  const auto timed = [&](std::size_t threads) {
    serve.serve_threads = threads;
    double best_wall = std::numeric_limits<double>::infinity();
    core::FleetServeResult last;
    for (int rep = 0; rep < 2; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto result = fleet->ServeAll(*plan, serve);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      best_wall = std::min(best_wall, wall);
      last = *std::move(result);
    }
    return std::make_pair(std::move(last), best_wall);
  };
  // Warm-up pass so first-touch page faults don't bias the serial timing.
  serve.serve_threads = 1;
  (void)fleet->ServeAll(*plan, serve);
  const auto [serial, serial_wall] = timed(1);
  const auto [threaded, threaded_wall] = timed(8);
  ExpectBitIdentical(serial, threaded);
  EXPECT_GE(serial_wall / threaded_wall, 2.0)
      << "serial " << serial_wall << "s vs 8-thread " << threaded_wall << "s";
}

TEST(FleetServeTest, InvalidOptionsAreRejected) {
  const Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  FleetServeOptions bad_duration = ShortServe();
  bad_duration.duration_s = 0.0;
  EXPECT_EQ(fleet.ServeAll(*plan, bad_duration).status().code(),
            StatusCode::kInvalidArgument);

  FleetServeOptions unknown_shift = ShortServe();
  unknown_shift.shifts = {FleetLoadShift{1.0, "DIEN", 2.0}};
  EXPECT_EQ(fleet.ServeAll(*plan, unknown_shift).status().code(),
            StatusCode::kNotFound);

  // A fleet member that is not part of the served plan is equally a
  // NotFound, never a silently dropped shift.
  FleetPlan partial = *plan;
  partial.models.erase(partial.models.begin());  // drop RM2
  FleetServeOptions shift_outside_plan = ShortServe();
  shift_outside_plan.shifts = {FleetLoadShift{1.0, "RM2", 2.0}};
  EXPECT_EQ(fleet.ServeAll(partial, shift_outside_plan).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(fleet.ServeAll(partial, ShortServe()).ok());

  FleetServeOptions late_shift = ShortServe();
  late_shift.shifts = {FleetLoadShift{99.0, "RM2", 2.0}};
  EXPECT_EQ(fleet.ServeAll(*plan, late_shift).status().code(),
            StatusCode::kInvalidArgument);

  FleetServeOptions bad_scale = ShortServe();
  bad_scale.shifts = {FleetLoadShift{1.0, "RM2", 0.0}};
  EXPECT_EQ(fleet.ServeAll(*plan, bad_scale).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetServeTest, ReallocationNeedsWarmMonitors) {
  const Fleet warm = MakeFleet();
  const auto plan = warm.PlanAll();
  ASSERT_TRUE(plan.ok());

  // A twin fleet whose monitors were never warmed can replay the plan
  // frozen, but periodic reallocation has no mix to probe against.
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  FleetOptions options;
  options.budget_per_hour = 8.0;
  options.allocator = "MARGINAL";
  auto cold = Fleet::Create(
      catalog,
      {FleetModelOptions{.model = "RM2"}, FleetModelOptions{.model = "WND"},
       FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      options);
  ASSERT_TRUE(cold.ok());
  FleetServeOptions serve = ShortServe();
  serve.controller = "PERIODIC";
  serve.controller_knobs = {{"period_s", 5.0}};
  EXPECT_EQ(cold->ServeAll(*plan, serve).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(cold->ServeAll(*plan, ShortServe()).ok());
}

}  // namespace
}  // namespace kairos::core
