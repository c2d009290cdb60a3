#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/kairos.h"
#include "latency/model_zoo.h"
#include "policy/kairos_policy.h"
#include "policy/ribbon_policy.h"
#include "or_throw.h"
#include "serve_trace.h"
#include "serving/engine.h"
#include "serving/latency_predictor.h"
#include "serving/throughput_eval.h"
#include "workload/trace.h"

namespace kairos::serving {
namespace {

using cloud::Catalog;
using cloud::Config;
using latency::LatencyModel;
using workload::Query;
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

// --- LatencyPredictor. ---

TEST(LatencyPredictorTest, PretrainedIsExactForAffineTruth) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  LatencyPredictor pred(catalog, truth, PredictorOptions{});
  for (int b : {1, 7, 50, 333, 1000}) {
    EXPECT_NEAR(pred.PredictMs(0, b), truth.LatencyMs(0, b), 1e-9);
    EXPECT_NEAR(pred.PredictMs(1, b), truth.LatencyMs(1, b), 1e-9);
  }
}

TEST(LatencyPredictorTest, OnlineLearningConvergesAfterHandfulOfQueries) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  LatencyPredictor pred(catalog, truth, PredictorOptions{.pretrained = false});
  EXPECT_FALSE(pred.HasLinearFit(0));
  // Observe a handful of queries, as the paper describes (Sec. 5.1).
  for (int b : {10, 100, 400}) {
    pred.Observe(0, b, truth.LatencyMs(0, b));
  }
  EXPECT_TRUE(pred.HasLinearFit(0));
  EXPECT_NEAR(pred.PredictMs(0, 777), truth.LatencyMs(0, 777), 1e-6);
}

TEST(LatencyPredictorTest, LookupOverridesRegression) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  LatencyPredictor pred(catalog, truth, PredictorOptions{.pretrained = false});
  // Feed non-affine observations at one batch; exact repeats must be
  // served from the lookup table (mean), not a linear fit.
  pred.Observe(0, 50, 100.0);
  pred.Observe(0, 50, 110.0);
  EXPECT_NEAR(pred.PredictMs(0, 50), 105.0, 1e-9);
  EXPECT_EQ(pred.ObservationCount(0), 2u);
}

TEST(LatencyPredictorTest, NoiseIsAppliedOnlyToPredict) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  LatencyPredictor pred(catalog, truth,
                        PredictorOptions{.noise_sigma = 0.05});
  const double noiseless = pred.PredictMsNoiseless(0, 100);
  EXPECT_NEAR(noiseless, truth.LatencyMs(0, 100), 1e-9);
  bool differs = false;
  for (int i = 0; i < 32; ++i) {
    if (std::abs(pred.PredictMs(0, 100) - noiseless) > 1e-9) differs = true;
  }
  EXPECT_TRUE(differs);
}

// --- Batch serving: a whole trace submitted upfront, then drained. ---

TEST(EngineBatchTest, SingleQuerySingleInstance) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::RibbonPolicy>()));
  const RunResult r = ServeTrace(*engine, Trace({Query{0, 100, 0.0}}));
  EXPECT_EQ(r.served, 1u);
  EXPECT_EQ(r.violations, 0u);
  // Latency = serving latency (no queueing): 10 + 0.1*100 = 20 ms.
  EXPECT_NEAR(r.latencies_ms[0], 20.0, 1e-9);
  EXPECT_NEAR(r.makespan, 0.020, 1e-9);
}

TEST(EngineBatchTest, QueueingDelaysAreAccounted) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}),
      std::make_unique<policy::RibbonPolicy>()));
  // Two simultaneous queries on one instance: second waits for the first.
  const RunResult r =
      ServeTrace(*engine, Trace({Query{0, 100, 0.0}, Query{1, 100, 0.0}}));
  ASSERT_EQ(r.served, 2u);
  EXPECT_NEAR(r.latencies_ms[0], 20.0, 1e-9);
  EXPECT_NEAR(r.latencies_ms[1], 40.0, 1e-9);  // 20 wait + 20 serve
}

TEST(EngineBatchTest, ViolationsCounted) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  // QoS 25 ms: a batch-100 query is fine alone (20ms) but queued is not.
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}, 25.0),
      std::make_unique<policy::RibbonPolicy>(), PredictorOptions{},
      EngineOptions{.run = {.abort_violation_fraction = 0.0}}));
  const RunResult r =
      ServeTrace(*engine, Trace({Query{0, 100, 0.0}, Query{1, 100, 0.0}}));
  EXPECT_EQ(r.violations, 1u);
  EXPECT_FALSE(r.QosMet(25.0));
}

TEST(EngineBatchTest, EarlyAbortOnViolationOverflow) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 0}, 25.0),
      std::make_unique<policy::RibbonPolicy>(), PredictorOptions{},
      EngineOptions{.run = {.abort_violation_fraction = 0.05}}));
  std::vector<Query> qs;
  for (int i = 0; i < 200; ++i) {
    qs.push_back(Query{static_cast<workload::QueryId>(i), 100, 0.0});
  }
  const RunResult r = ServeTrace(*engine, Trace(qs));
  EXPECT_TRUE(r.aborted);
  EXPECT_LT(r.served, 200u);
}

TEST(EngineBatchTest, PerTypeStatsSumToTotals) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 2}),
      std::make_unique<policy::KairosPolicy>()));
  Rng rng(3);
  const auto mix = workload::LogNormalBatches::Production();
  const Trace trace =
      Trace::Generate(workload::PoissonArrivals(40.0), mix, 300, rng);
  const RunResult r = ServeTrace(*engine, trace);
  std::size_t total = 0;
  for (std::size_t s : r.per_type_served) total += s;
  EXPECT_EQ(total, r.served);
}

TEST(EngineBatchTest, RecordsKeptWhenRequested) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  auto engine = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 1}),
      std::make_unique<policy::KairosPolicy>(), PredictorOptions{},
      EngineOptions{.run = {.keep_records = true}}));
  const RunResult r =
      ServeTrace(*engine, Trace({Query{0, 10, 0.0}, Query{1, 600, 0.001}}));
  ASSERT_EQ(r.records.size(), 2u);
  for (const ServedRecord& rec : r.records) {
    EXPECT_GE(rec.start, rec.arrival);
    EXPECT_GT(rec.finish, rec.start);
    EXPECT_NEAR(rec.LatencyMs(), SecToMs(rec.finish - rec.arrival), 1e-12);
  }
}

TEST(EngineBatchTest, RunIsRepeatable) {
  // Two fresh engines on one trace serve it identically.
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  Rng rng(4);
  const auto mix = workload::LogNormalBatches::Production();
  const Trace trace =
      Trace::Generate(workload::PoissonArrivals(30.0), mix, 200, rng);
  auto first = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 1}),
      std::make_unique<policy::KairosPolicy>()));
  auto second = OrThrow(Engine::Create(
      TinySpec(catalog, truth, {1, 1}),
      std::make_unique<policy::KairosPolicy>()));
  const RunResult a = ServeTrace(*first, trace);
  const RunResult b = ServeTrace(*second, trace);
  EXPECT_EQ(a.served, b.served);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

// --- Allowable-throughput evaluation. ---

TEST(ThroughputEvalTest, SingleServerMatchesLittleLaw) {
  // One base instance, tiny batches (lat ~ 10.1ms): the allowable rate must
  // land below the 1/E[service] saturation point but clearly above half.
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const workload::EmpiricalBatches mix({1});
  EvalOptions opt;
  opt.queries = 400;
  opt.rate_guess = 50.0;
  const auto r = EvaluateConfig(
      catalog, Config({1, 0}), truth, /*qos_ms=*/60.0,
      [] { return std::make_unique<policy::RibbonPolicy>(); }, mix, opt);
  const double saturation = 1000.0 / truth.LatencyMs(0, 1);
  EXPECT_LT(r.qps, saturation);
  EXPECT_GT(r.qps, 0.4 * saturation);
}

TEST(ThroughputEvalTest, MoreInstancesMoreThroughput) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  EvalOptions opt;
  opt.queries = 400;
  opt.rate_guess = 20.0;
  const auto policy = [] { return std::make_unique<policy::KairosPolicy>(); };
  const auto one =
      EvaluateConfig(catalog, Config({1, 0}), truth, 200.0, policy, mix, opt);
  const auto two =
      EvaluateConfig(catalog, Config({2, 0}), truth, 200.0, policy, mix, opt);
  EXPECT_GT(two.qps, 1.5 * one.qps);
}

TEST(ThroughputEvalTest, ImpossibleQosYieldsZero) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const workload::EmpiricalBatches mix({1000});  // 110 ms on base
  EvalOptions opt;
  opt.queries = 100;
  const auto r = EvaluateConfig(
      catalog, Config({1, 0}), truth, /*qos_ms=*/50.0,
      [] { return std::make_unique<policy::RibbonPolicy>(); }, mix, opt);
  EXPECT_DOUBLE_EQ(r.qps, 0.0);
}

// The reference form of EvaluateConfig before the scratch-trace
// optimisation: a fresh Retimed() trace materialized per rate trial and
// served on a fresh engine. The optimized path must reproduce its
// EvalResult exactly.
EvalResult ReferenceEvaluateConfig(const SystemSpec& spec,
                                   const PolicyFactory& policy_factory,
                                   const workload::BatchDistribution& mix,
                                   const EvalOptions& options) {
  Rng rng(options.seed);
  const workload::PoissonArrivals unit_rate(1.0);
  const Trace base =
      Trace::Generate(unit_rate, mix, options.queries, rng);

  EvalResult result;
  auto passes = [&](double rate) {
    ++result.trials;
    const Trace trial = base.Retimed(rate);
    auto engine = OrThrow(Engine::Create(spec, policy_factory()));
    return ServeTrace(*engine, trial).QosMet(spec.qos_ms);
  };

  double lo = 0.0;
  double hi = std::max(1e-3, options.rate_guess);
  if (passes(hi)) {
    for (int i = 0; i < 24; ++i) {
      lo = hi;
      hi *= 2.0;
      if (!passes(hi)) break;
      if (i == 23) return {hi, result.trials};
    }
  } else {
    bool found_passing = false;
    for (int i = 0; i < 24; ++i) {
      hi /= 2.0;
      if (passes(hi)) {
        lo = hi;
        hi *= 2.0;
        found_passing = true;
        break;
      }
      if (hi < 1e-3) break;
    }
    if (!found_passing) return {0.0, result.trials};
  }
  for (int i = 0; i < options.bisect_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.qps = lo;
  return result;
}

TEST(ThroughputEvalTest, ScratchTraceReuseMatchesReferencePath) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const PolicyFactory policy = [] {
    return std::make_unique<policy::KairosPolicy>();
  };
  const auto mix = workload::LogNormalBatches::Production();
  for (const double guess : {5.0, 25.0, 80.0}) {
    EvalOptions opt;
    opt.queries = 250;
    opt.rate_guess = guess;
    const EvalResult got =
        EvaluateConfig(catalog, Config({2, 1}), truth, 200.0, policy, mix, opt);
    const EvalResult want = ReferenceEvaluateConfig(
        TinySpec(catalog, truth, {2, 1}), policy, mix, opt);
    EXPECT_EQ(got.qps, want.qps) << "guess " << guess;
    EXPECT_EQ(got.trials, want.trials) << "guess " << guess;
  }
}

TEST(TraceTest, RetimedIntoMatchesRetimed) {
  Rng rng(11);
  const auto mix = workload::LogNormalBatches::Production();
  const workload::PoissonArrivals unit_rate(1.0);
  const Trace base = Trace::Generate(unit_rate, mix, 300, rng);
  Trace scratch;  // reused across rates, like the evaluator's inner loop
  for (const double rate : {0.5, 3.0, 17.0, 250.0}) {
    base.RetimedInto(rate, &scratch);
    const Trace fresh = base.Retimed(rate);
    ASSERT_EQ(scratch.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(scratch.queries()[i].arrival, fresh.queries()[i].arrival);
      EXPECT_EQ(scratch.queries()[i].batch_size, fresh.queries()[i].batch_size);
      EXPECT_EQ(scratch.queries()[i].id, fresh.queries()[i].id);
    }
  }
}

TEST(ThroughputEvalTest, TrialsAreBounded) {
  const Catalog catalog = TinyCatalog();
  const LatencyModel truth = TinyModel();
  const auto mix = workload::LogNormalBatches::Production();
  EvalOptions opt;
  opt.queries = 200;
  opt.bisect_iters = 5;
  opt.rate_guess = 25.0;
  const auto r = EvaluateConfig(
      catalog, Config({2, 1}), truth, 200.0,
      [] { return std::make_unique<policy::KairosPolicy>(); }, mix, opt);
  EXPECT_LE(r.trials, 40);
  EXPECT_GT(r.qps, 0.0);
}

}  // namespace
}  // namespace kairos::serving
