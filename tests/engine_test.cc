// Streaming-engine and query-source coverage (DESIGN.md Sec. 8): the
// engine state machine, windowed-metrics determinism across AdvanceTo
// step sizes, mid-run mutation (arrival scale, policy swap,
// reconfiguration with launch lag),
// admission control and deadline shedding (DESIGN.md Sec. 12), and the
// QuerySource registry contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "or_throw.h"
#include "policy/kairos_policy.h"
#include "policy/ribbon_policy.h"
#include "serving/engine.h"
#include "serving/throughput_eval.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/query_source.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace kairos::serving {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;
using workload::Query;
using workload::QuerySourceRegistry;
using workload::QuerySourceSpec;
using workload::Trace;

// A tiny two-type catalog: fast base "B", slow aux "A".
Catalog TinyCatalog() {
  Catalog c;
  c.Add({"base", "B", cloud::InstanceClass::kGpuAccelerated, 1.0, true});
  c.Add({"aux", "A", cloud::InstanceClass::kGeneralPurposeCpu, 0.25, false});
  return c;
}

// Base: 10ms + 0.1ms/item; aux: 20ms + 0.4ms/item.
LatencyModel TinyModel() {
  return LatencyModel({{10.0, 0.1}, {20.0, 0.4}});
}

SystemSpec TinySpec(const Catalog& catalog, const LatencyModel& model,
                    std::vector<int> counts, double qos_ms = 200.0) {
  SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = Config(std::move(counts));
  spec.truth = &model;
  spec.qos_ms = qos_ms;
  return spec;
}

Trace MediumTrace(double rate_qps = 30.0, std::size_t count = 200,
                  std::uint64_t seed = 4) {
  Rng rng(seed);
  const auto mix = workload::LogNormalBatches::Production();
  return Trace::Generate(workload::PoissonArrivals(rate_qps), mix, count, rng);
}

// --- State machine and submission rules. ---

TEST(EngineTest, StateMachineServingDrainingDrained) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  EXPECT_EQ(engine->state(), EngineState::kServing);
  ASSERT_TRUE(engine->Submit(Query{0, 10, 0.5}).ok());
  engine->Drain();
  EXPECT_EQ(engine->state(), EngineState::kDrained);

  const Status late = engine->Submit(Query{1, 10, 1.0});
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(late.message().find("DRAINED"), std::string::npos);
  EXPECT_EQ(engine->SetArrivalScale(2.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->Reconfigure(Config({2, 0})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, SubmitInThePastIsInvalid) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  engine->AdvanceTo(5.0);
  EXPECT_EQ(engine->Submit(Query{0, 10, 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine->Submit(Query{0, 10, 5.0}).ok());
}

TEST(EngineTest, AdvanceToLandsTheClockExactly) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  EXPECT_EQ(engine->AdvanceTo(3.5), 0u);
  EXPECT_DOUBLE_EQ(engine->Now(), 3.5);
  // Moving backwards is a no-op, not a rewind.
  engine->AdvanceTo(1.0);
  EXPECT_DOUBLE_EQ(engine->Now(), 3.5);
}

TEST(EngineTest, CreateRejectsBadSpecsWithStatus) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  SystemSpec no_catalog = TinySpec(catalog, truth, {1, 0});
  no_catalog.catalog = nullptr;
  EXPECT_EQ(Engine::Create(no_catalog, std::make_unique<policy::KairosPolicy>())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Engine::Create(TinySpec(catalog, truth, {0, 0}),
                           std::make_unique<policy::KairosPolicy>())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Engine::Create(TinySpec(catalog, truth, {1, 0}), nullptr).status().code(),
      StatusCode::kInvalidArgument);
  // Create refuses the admission knobs SetAdmission refuses.
  for (const double deadline_s : {-1.0, std::nan("")}) {
    EngineOptions bad_admission;
    bad_admission.admission.deadline_s = deadline_s;
    EXPECT_EQ(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                             std::make_unique<policy::KairosPolicy>(),
                             PredictorOptions{}, bad_admission)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << deadline_s;
  }
  // EvaluateConfig builds each rate trial's engine with Create and reports
  // the same refusal as its documented std::invalid_argument.
  EXPECT_THROW(EvaluateConfig(
                   catalog, Config({0, 0}), truth, 200.0,
                   [] { return std::make_unique<policy::KairosPolicy>(); },
                   workload::LogNormalBatches::Production(), EvalOptions{}),
               std::invalid_argument);
}

// --- Zero-offered runs (the throughput/QosMet regression). ---

TEST(EngineTest, EmptyRunReportsZeroThroughputAndFailsQos) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  engine->Drain();
  const RunResult r = engine->Totals();
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.served, 0u);
  EXPECT_EQ(r.throughput_qps, 0.0);  // 0/0 must not surface as NaN
  EXPECT_FALSE(r.QosMet(200.0));     // an empty run demonstrates nothing
}

// --- Windowed metrics. ---

void ExpectSameWindow(const WindowedMetrics& a, const WindowedMetrics& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.offered_qps, b.offered_qps);
  EXPECT_EQ(a.qps, b.qps);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.reject_rate, b.reject_rate);
  EXPECT_EQ(a.shed_rate, b.shed_rate);
}

TEST(EngineTest, WindowedMetricsBitIdenticalAcrossStepSizes) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();

  // Same seed + same submission schedule, realized with different
  // AdvanceTo granularities: one 2s stride vs. forty 0.05s strides.
  auto make_engine = [&] {
    EngineOptions options;
    options.seed = 7;
    options.run.abort_violation_fraction = 0.0;
    return OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 1}),
                                  std::make_unique<policy::KairosPolicy>(),
                                  PredictorOptions{}, options));
  };
  auto make_source = [] {
    QuerySourceSpec spec;
    spec.source = "production";  // case-insensitive lookup
    spec.rate_qps = 60.0;
    return QuerySourceRegistry::Global().Build(spec);
  };

  auto coarse_engine = make_engine();
  auto coarse_source = make_source();
  ASSERT_TRUE(coarse_source.ok()) << coarse_source.status().ToString();
  ASSERT_TRUE(coarse_engine->SubmitSource(**coarse_source).ok());

  auto fine_engine = make_engine();
  auto fine_source = make_source();
  ASSERT_TRUE(fine_source.ok());
  ASSERT_TRUE(fine_engine->SubmitSource(**fine_source).ok());

  for (int window = 1; window <= 3; ++window) {
    const Time horizon = 2.0 * window;
    coarse_engine->AdvanceTo(horizon);
    for (int step = 0; step < 40; ++step) {
      fine_engine->AdvanceTo(horizon - 2.0 + 0.05 * (step + 1));
    }
    const WindowedMetrics coarse = coarse_engine->TakeWindow();
    const WindowedMetrics fine = fine_engine->TakeWindow();
    EXPECT_GT(coarse.offered, 0u);
    ExpectSameWindow(coarse, fine);
  }
}

TEST(EngineTest, TakeWindowResetsTheAccumulator) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  ASSERT_TRUE(engine->Submit(Query{0, 10, 0.5}).ok());
  engine->AdvanceTo(1.0);
  const WindowedMetrics first = engine->TakeWindow();
  EXPECT_EQ(first.offered, 1u);
  EXPECT_EQ(first.served, 1u);
  EXPECT_DOUBLE_EQ(first.start, 0.0);
  EXPECT_DOUBLE_EQ(first.end, 1.0);
  engine->AdvanceTo(2.0);
  const WindowedMetrics second = engine->TakeWindow();
  EXPECT_DOUBLE_EQ(second.start, 1.0);
  EXPECT_EQ(second.offered, 0u);
  EXPECT_EQ(second.served, 0u);
  EXPECT_EQ(second.qps, 0.0);
}

// --- Mid-run mutation. ---

TEST(EngineTest, SetArrivalScaleRescalesSourceGaps) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {2, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  QuerySourceSpec spec;
  spec.source = "UNIFORM";
  spec.rate_qps = 10.0;
  auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(engine->SubmitSource(**source).ok());

  engine->AdvanceTo(10.0);
  const WindowedMetrics before = engine->TakeWindow();
  ASSERT_TRUE(engine->SetArrivalScale(2.0).ok());
  engine->AdvanceTo(20.0);
  const WindowedMetrics after = engine->TakeWindow();
  // Fixed 0.1s gaps: ~100 arrivals in the first window, ~200 once the
  // gaps are halved (edge emissions make it inexact by one).
  EXPECT_NEAR(static_cast<double>(before.offered), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(after.offered), 200.0, 2.0);

  EXPECT_EQ(engine->SetArrivalScale(0.0).code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, SwapPolicyMidRunTakesEffect) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 1}),
      std::make_unique<policy::KairosPolicy>()));
  EXPECT_EQ(engine->GetPolicy().Name(), "KAIROS");
  ASSERT_TRUE(engine->Submit(Query{0, 50, 0.5}).ok());
  engine->AdvanceTo(0.25);
  ASSERT_TRUE(engine->SwapPolicy("ribbon").ok());  // case-insensitive
  EXPECT_EQ(engine->GetPolicy().Name(), "RIBBON");
  engine->Drain();
  EXPECT_EQ(engine->Totals().served, 1u);

  const Status unknown = engine->SwapPolicy("FCFS++");
  EXPECT_EQ(unknown.code(), StatusCode::kFailedPrecondition);  // drained
}

TEST(EngineTest, SwapPolicyUnknownNameListsAlternatives) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  const Status unknown = engine->SwapPolicy("FCFS++");
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.message().find("KAIROS"), std::string::npos);
}

TEST(EngineTest, ReconfigureLaunchesAfterLagAndDrainsRemoved) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.launch_lag_s = 0.5;
  options.run.abort_violation_fraction = 0.0;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  EXPECT_EQ(engine->ActiveInstances(), 1u);

  // Scale out: the two new instances come online launch_lag_s later.
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());
  engine->AdvanceTo(0.4);
  EXPECT_EQ(engine->ActiveInstances(), 1u);
  engine->AdvanceTo(0.6);
  EXPECT_EQ(engine->ActiveInstances(), 3u);
  EXPECT_EQ(engine->target_config().Count(0), 3);

  // Scale in: idle instances retire on the spot (nothing to drain).
  ASSERT_TRUE(engine->Reconfigure(Config({1, 0})).ok());
  EXPECT_EQ(engine->ActiveInstances(), 1u);

  EXPECT_EQ(engine->Reconfigure(Config({1})).code(),
            StatusCode::kInvalidArgument);  // arity mismatch
  EXPECT_EQ(engine->Reconfigure(Config({0, 0})).code(),
            StatusCode::kInvalidArgument);  // no instances
}

TEST(EngineTest, ReissuedReconfigureKeepsPendingLaunchesOnSchedule) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.launch_lag_s = 1.0;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  // Re-issuing the same grown target faster than the launch lag must not
  // reset the pending launches' clocks (a periodic reallocator would
  // otherwise never gain capacity).
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());
  engine->AdvanceTo(0.4);
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());
  engine->AdvanceTo(0.8);
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());
  engine->AdvanceTo(1.1);
  EXPECT_EQ(engine->ActiveInstances(), 3u);

  // Shrinking back below the live count cancels nothing but retires; a
  // shrink while launches are pending cancels those first.
  ASSERT_TRUE(engine->Reconfigure(Config({5, 0})).ok());
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());  // cancels the 2
  engine->AdvanceTo(3.0);
  EXPECT_EQ(engine->ActiveInstances(), 3u);
}

TEST(EngineTest, OfferedCountsArrivalsNotScheduledAheadEmissions) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {2, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  QuerySourceSpec spec;
  spec.source = "UNIFORM";
  spec.rate_qps = 10.0;
  auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(engine->SubmitSource(**source).ok());
  engine->AdvanceTo(10.0);
  // Fixed 0.1s gaps: arrivals at 0.1 .. 10.0 exactly; the emission
  // already scheduled for 10.1 must not be in the ledger yet.
  EXPECT_EQ(engine->Totals().offered, 100u);
}

TEST(EngineTest, DrainOnSharedClockStopsDespitePeerUnboundedSource) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  sim::Simulator clock;
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  auto a = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                  std::make_unique<policy::KairosPolicy>(),
                                  PredictorOptions{}, options, &clock));
  auto b = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                  std::make_unique<policy::KairosPolicy>(),
                                  PredictorOptions{}, options, &clock));
  QuerySourceSpec spec;
  spec.source = "UNIFORM";
  spec.rate_qps = 20.0;
  auto peer_source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_TRUE(peer_source.ok());
  ASSERT_TRUE(b->SubmitSource(**peer_source).ok());  // unbounded peer

  ASSERT_TRUE(a->Submit(Query{0, 10, 0.05}).ok());
  ASSERT_TRUE(a->Submit(Query{1, 10, 0.15}).ok());
  a->Drain();  // must terminate once a's two queries completed
  EXPECT_EQ(a->state(), EngineState::kDrained);
  const RunResult totals = a->Totals();
  EXPECT_EQ(totals.offered, 2u);
  EXPECT_EQ(totals.served, 2u);
}

TEST(EngineTest, ReconfigureExpandsServiceCapacityMidRun) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.launch_lag_s = 0.2;
  options.run.abort_violation_fraction = 0.0;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  // Batch-100 queries cost 20ms on base: 100 QPS offered saturates 1
  // instance (capacity 50/s) but not 3.
  QuerySourceSpec spec;
  spec.source = "UNIFORM";
  spec.rate_qps = 100.0;
  spec.batch = 100;
  auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(engine->SubmitSource(**source).ok());

  engine->AdvanceTo(2.0);
  const WindowedMetrics congested = engine->TakeWindow();
  ASSERT_TRUE(engine->Reconfigure(Config({3, 0})).ok());
  engine->AdvanceTo(4.0);
  const WindowedMetrics relieved = engine->TakeWindow();
  EXPECT_LT(congested.qps, 55.0);  // single-instance ceiling
  EXPECT_GT(relieved.qps, 95.0);   // backlog drains at 3-instance capacity
}

// --- Admission control and deadline shedding (DESIGN.md Sec. 12). ---

TEST(EngineAdmissionTest, BoundedQueueRejectsBurstsAndConserves) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  options.admission.max_queue = 4;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  // A simultaneous burst of 10: at most max_queue of them can be waiting
  // when each later arrival is admitted, so some must bounce.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->Submit(Query{i, 1, 0.001}).ok());
  }
  engine->Drain();
  const RunResult& totals = engine->Totals();
  EXPECT_EQ(totals.offered, 10u);  // rejected arrivals still arrived
  EXPECT_GT(engine->Rejected(), 0u);
  EXPECT_EQ(engine->Shed(), 0u);  // no deadline in play
  EXPECT_EQ(totals.served + totals.rejected, 10u);
  EXPECT_EQ(engine->Backlog(), 0u);
}

TEST(EngineAdmissionTest, ImpossibleDeadlineShedsTheWholeQueue) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  // Base service floor is 10ms; a 1ms deadline dooms every query the
  // moment it arrives, so nothing is ever dispatched.
  options.admission.deadline_s = 0.001;
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine->Submit(Query{i, 2, 0.01 * (i + 1)}).ok());
  }
  engine->Drain();
  EXPECT_EQ(engine->Totals().offered, 5u);
  EXPECT_EQ(engine->Totals().served, 0u);
  EXPECT_EQ(engine->Shed(), 5u);
  EXPECT_EQ(engine->Rejected(), 0u);
  EXPECT_EQ(engine->Backlog(), 0u);
}

TEST(EngineAdmissionTest, HugeLimitsAreBitIdenticalToDisabled) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto run = [&](AdmissionOptions admission) {
    EngineOptions options;
    options.seed = 11;
    options.run.abort_violation_fraction = 0.0;
    options.admission = admission;
    auto engine = OrThrow(Engine::Create(
        TinySpec(catalog, truth, {1, 1}),
        std::make_unique<policy::KairosPolicy>(), PredictorOptions{}, options));
    QuerySourceSpec spec;
    spec.source = "PRODUCTION";
    spec.rate_qps = 60.0;
    auto source = QuerySourceRegistry::Global().Build(spec);
    EXPECT_TRUE(source.ok());
    EXPECT_TRUE(engine->SubmitSource(**source).ok());
    engine->AdvanceTo(5.0);
    return engine->TakeWindow();
  };
  AdmissionOptions generous;
  generous.max_queue = 1u << 20;
  generous.deadline_s = 1e6;
  const WindowedMetrics with_limits = run(generous);
  const WindowedMetrics disabled = run(AdmissionOptions{});
  EXPECT_GT(with_limits.offered, 0u);
  EXPECT_EQ(with_limits.rejected, 0u);
  EXPECT_EQ(with_limits.shed, 0u);
  ExpectSameWindow(with_limits, disabled);
}

TEST(EngineAdmissionTest, ShedAccountingBitIdenticalAcrossStepSizes) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  // Overload a single base instance (capacity ~50 batch-100 queries/s)
  // with 200 QPS plus a tight-but-feasible deadline: some queries serve,
  // some shed, some bounce off the queue bound. The ledger must not
  // depend on how the schedule is realized.
  auto make_engine = [&] {
    EngineOptions options;
    options.seed = 13;
    options.run.abort_violation_fraction = 0.0;
    options.admission.max_queue = 32;
    options.admission.deadline_s = 0.1;
    return OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                  std::make_unique<policy::KairosPolicy>(),
                                  PredictorOptions{}, options));
  };
  auto make_source = [] {
    QuerySourceSpec spec;
    spec.source = "UNIFORM";
    spec.rate_qps = 200.0;
    spec.batch = 100;
    return QuerySourceRegistry::Global().Build(spec);
  };
  auto coarse = make_engine();
  auto coarse_source = make_source();
  ASSERT_TRUE(coarse_source.ok());
  ASSERT_TRUE(coarse->SubmitSource(**coarse_source).ok());
  auto fine = make_engine();
  auto fine_source = make_source();
  ASSERT_TRUE(fine_source.ok());
  ASSERT_TRUE(fine->SubmitSource(**fine_source).ok());

  for (int window = 1; window <= 3; ++window) {
    const Time horizon = 1.0 * window;
    coarse->AdvanceTo(horizon);
    for (int step = 0; step < 100; ++step) {
      fine->AdvanceTo(horizon - 1.0 + 0.01 * (step + 1));
    }
    const WindowedMetrics a = coarse->TakeWindow();
    const WindowedMetrics b = fine->TakeWindow();
    ExpectSameWindow(a, b);
  }
  EXPECT_GT(coarse->Shed() + coarse->Rejected(), 0u)
      << "overload regime failed to exercise admission control";
  EXPECT_EQ(coarse->Shed(), fine->Shed());
  EXPECT_EQ(coarse->Rejected(), fine->Rejected());
}

TEST(EngineAdmissionTest, SetAdmissionValidatesAndAppliesMidRun) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));

  AdmissionOptions negative;
  negative.deadline_s = -1.0;
  EXPECT_EQ(engine->SetAdmission(negative).code(),
            StatusCode::kInvalidArgument);

  // Queue work behind a long-running head, then tighten the deadline
  // mid-run: the doomed tail is shed at the next policy round.
  ASSERT_TRUE(engine->Submit(Query{0, 1000, 0.0}).ok());  // 110ms on base
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(engine->Submit(Query{i, 1000, 0.001}).ok());
  }
  engine->AdvanceTo(0.05);
  EXPECT_EQ(engine->Shed(), 0u);
  AdmissionOptions tight;
  tight.deadline_s = 0.2;  // heads now need >= 3 x 110ms of queue ahead
  ASSERT_TRUE(engine->SetAdmission(tight).ok());
  EXPECT_DOUBLE_EQ(engine->admission().deadline_s, 0.2);
  engine->Drain();
  EXPECT_GT(engine->Shed(), 0u);
  EXPECT_EQ(engine->Totals().served + engine->Shed(), 5u);

  // DRAINED engines are immutable.
  EXPECT_EQ(engine->SetAdmission(AdmissionOptions{}).code(),
            StatusCode::kFailedPrecondition);
}

// --- WindowedMetrics corner cases. ---

TEST(WindowedMetricsCornerTest, EmptyWindowReportsAllZeroes) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  engine->AdvanceTo(1.0);
  const WindowedMetrics window = engine->TakeWindow();
  EXPECT_EQ(window.offered, 0u);
  EXPECT_EQ(window.served, 0u);
  EXPECT_EQ(window.rejected, 0u);
  EXPECT_EQ(window.shed, 0u);
  EXPECT_EQ(window.p99_ms, 0.0);
  EXPECT_EQ(window.mean_ms, 0.0);
  EXPECT_EQ(window.mean_batch, 0.0);
  // Rates divide by offered: zero arrivals must read 0, never NaN.
  EXPECT_EQ(window.reject_rate, 0.0);
  EXPECT_EQ(window.shed_rate, 0.0);
}

TEST(WindowedMetricsCornerTest, SingleCompletionWindowP99EqualsItsLatency) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::KairosPolicy>()));
  ASSERT_TRUE(engine->Submit(Query{0, 40, 0.25}).ok());
  engine->AdvanceTo(1.0);
  const WindowedMetrics window = engine->TakeWindow();
  EXPECT_EQ(window.offered, 1u);
  EXPECT_EQ(window.served, 1u);
  EXPECT_GT(window.p99_ms, 0.0);
  EXPECT_EQ(window.p99_ms, window.mean_ms);
  EXPECT_EQ(window.mean_batch, 40.0);
  EXPECT_EQ(window.shed_rate, 0.0);
  EXPECT_EQ(window.reject_rate, 0.0);
}

TEST(WindowedMetricsCornerTest, FullyShedWindowReportsShedRateOne) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  EngineOptions options;
  options.run.abort_violation_fraction = 0.0;
  options.admission.deadline_s = 0.001;  // below the 10ms service floor
  auto engine = OrThrow(Engine::Create(TinySpec(catalog, truth, {1, 0}),
                                       std::make_unique<policy::KairosPolicy>(),
                                       PredictorOptions{}, options));
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine->Submit(Query{i, 3, 0.1 * (i + 1)}).ok());
  }
  engine->AdvanceTo(1.0);
  const WindowedMetrics window = engine->TakeWindow();
  EXPECT_EQ(window.offered, 5u);
  EXPECT_EQ(window.served, 0u);
  EXPECT_EQ(window.shed, 5u);
  EXPECT_EQ(window.shed_rate, 1.0);
  EXPECT_EQ(window.reject_rate, 0.0);
  EXPECT_EQ(window.p99_ms, 0.0);  // no completions to take a p99 over
  EXPECT_EQ(window.mean_batch, 3.0);
}

// --- QuerySource registry. ---

TEST(QuerySourceTest, RegistryListsTheSixSources) {
  const auto names = QuerySourceRegistry::Global().ListNames();
  for (const char* expected :
       {"GAUSSIAN", "POISSON", "PRODUCTION", "STREAM", "TRACE", "UNIFORM"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(QuerySourceTest, RoundTripEveryRegisteredName) {
  Rng rng(5);
  // STREAM needs a real file: persist the same 4-query trace the TRACE
  // source replays, so both exhaust after the 4 emissions below.
  const Trace trace = MediumTrace(25.0, 4);
  const std::string trace_path =
      ::testing::TempDir() + "roundtrip_source_trace.csv";
  ASSERT_TRUE(workload::WriteTraceCsv(trace, trace_path).ok());
  for (const std::string& name : QuerySourceRegistry::Global().ListNames()) {
    QuerySourceSpec spec;
    spec.source = name;
    spec.rate_qps = 25.0;
    spec.limit = 4;
    spec.trace = trace;
    spec.path = trace_path;
    auto source = QuerySourceRegistry::Global().Build(spec);
    ASSERT_TRUE(source.ok()) << name << ": " << source.status().ToString();
    const auto info = QuerySourceRegistry::Global().Info(name);
    ASSERT_TRUE(info.ok());
    EXPECT_FALSE(info->summary.empty());
    for (int i = 0; i < 4; ++i) {
      const auto emission = (*source)->Next(rng);
      ASSERT_TRUE(emission.has_value()) << name << " emission " << i;
      EXPECT_GE(emission->gap, 0.0);
      EXPECT_GE(emission->batch, 1);
    }
    // limit = 4 (and the 4-query trace) both exhaust here.
    EXPECT_FALSE((*source)->Next(rng).has_value()) << name;
  }
  std::remove(trace_path.c_str());
}

TEST(QuerySourceTest, UnknownNameIsNotFoundListingAlternatives) {
  QuerySourceSpec spec;
  spec.source = "WAT";
  const auto source = QuerySourceRegistry::Global().Build(spec);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
  EXPECT_NE(source.status().message().find("POISSON"), std::string::npos);
  EXPECT_NE(source.status().message().find("TRACE"), std::string::npos);
  EXPECT_FALSE(QuerySourceRegistry::Global().Contains("WAT"));
  EXPECT_TRUE(QuerySourceRegistry::Global().Contains("poisson"));
}

TEST(QuerySourceTest, NullBuilderIsRejectedAtRegistration) {
  // Accepting it would leave an entry whose Build() throws
  // std::bad_function_call out of a Status-returning API.
  const Status status = QuerySourceRegistry::Global().Register(
      "NULL_BUILDER", "a source with no builder",
      workload::QuerySourceBuilder());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(QuerySourceRegistry::Global().Contains("NULL_BUILDER"));
  QuerySourceSpec spec;
  spec.source = "NULL_BUILDER";
  EXPECT_EQ(QuerySourceRegistry::Global().Build(spec).status().code(),
            StatusCode::kNotFound);
}

TEST(QuerySourceTest, BadParametersAreInvalidArgument) {
  QuerySourceSpec bad_rate;
  bad_rate.source = "POISSON";
  bad_rate.rate_qps = -1.0;
  EXPECT_EQ(QuerySourceRegistry::Global().Build(bad_rate).status().code(),
            StatusCode::kInvalidArgument);

  QuerySourceSpec empty_trace;
  empty_trace.source = "TRACE";
  EXPECT_EQ(QuerySourceRegistry::Global().Build(empty_trace).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuerySourceTest, TraceSourceReplaysGapsAndBatchesExactly) {
  const Trace trace({Query{0, 7, 0.25}, Query{1, 13, 0.25}, Query{2, 2, 1.0}});
  workload::TraceSource source(trace);
  Rng rng(1);
  Time cumulative = 0.0;
  for (const Query& q : trace.queries()) {
    const auto emission = source.Next(rng);
    ASSERT_TRUE(emission.has_value());
    cumulative += emission->gap;
    EXPECT_DOUBLE_EQ(cumulative, q.arrival);
    EXPECT_EQ(emission->batch, q.batch_size);
  }
  EXPECT_FALSE(source.Next(rng).has_value());
  source.Reset();
  EXPECT_TRUE(source.Next(rng).has_value());
}

}  // namespace
}  // namespace kairos::serving
