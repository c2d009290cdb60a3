// Sec. 5.2 warmup cost: "for an order of 1000-configuration search space,
// all upper bounds can be calculated and ranked within 2 seconds". Our
// analytic implementation should beat that by orders of magnitude; this
// binary measures the estimates alone, estimate+rank end to end, one whole
// one-shot plan, and Kairos+'s own bookkeeping over a ranked space.
#include <benchmark/benchmark.h>

#include "cloud/config_space.h"
#include "core/kairos.h"
#include "search/kairos_plus.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

namespace {

// The RM2 search space on the paper pool at budget range(0) / 10 $/hr,
// with a production-mix monitor.
struct WholeSpace {
  explicit WholeSpace(const benchmark::State& state)
      : catalog(kairos::cloud::Catalog::PaperPool()),
        spec(kairos::latency::FindModel("RM2")),
        truth(spec.Instantiate(catalog)),
        space(kairos::cloud::EnumerateConfigs(
            catalog,
            {.budget_per_hour = static_cast<double>(state.range(0)) / 10.0,
             .min_base_instances = 1})),
        monitor(kairos::core::MonitorFromMix(
            kairos::workload::LogNormalBatches::Production(), 10000, 7)),
        estimator(catalog, truth, spec.qos_ms) {}

  kairos::cloud::Catalog catalog;
  kairos::latency::ModelSpec spec;
  kairos::latency::LatencyModel truth;
  std::vector<kairos::cloud::Config> space;
  kairos::workload::QueryMonitor monitor;
  kairos::ub::UpperBoundEstimator estimator;
};

void BudgetArgs(benchmark::internal::Benchmark* b) {
  b->Arg(25);   // $2.5/hr: 331 configs
  b->Arg(50);   // $5/hr: 4,996 configs
  b->Arg(100);  // $10/hr: 77,096 configs
}

// The estimator alone: at the larger budgets the rank's stable sort
// outweighs it, so estimate+rank would hide its cost.
void BM_EstimateAllWholeSpace(benchmark::State& state) {
  const WholeSpace w(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.estimator.EstimateAll(w.space, w.monitor));
  }
  state.counters["configs"] =
      benchmark::Counter(static_cast<double>(w.space.size()));
}
BENCHMARK(BM_EstimateAllWholeSpace)->Apply(BudgetArgs);

void BM_EstimateAndRankWholeSpace(benchmark::State& state) {
  const WholeSpace w(state);
  for (auto _ : state) {
    const auto bounds = w.estimator.EstimateAll(w.space, w.monitor);
    benchmark::DoNotOptimize(kairos::ub::RankByUpperBound(w.space, bounds));
  }
  state.counters["configs"] =
      benchmark::Counter(static_cast<double>(w.space.size()));
}
BENCHMARK(BM_EstimateAndRankWholeSpace)->Apply(BudgetArgs);

// Kairos+ over the whole ranked space, ranked once outside the loop. The
// evaluator returns 1.01x the rank-0 bound, so the first evaluation prunes
// every other candidate by bound: each iteration is one evaluation plus
// the search's pure bookkeeping.
void BM_KairosPlusWholeSpace(benchmark::State& state) {
  const WholeSpace w(state);
  const auto ranked = kairos::ub::RankByUpperBound(
      w.space, w.estimator.EstimateAll(w.space, w.monitor));
  const double qps = 1.01 * ranked.front().upper_bound;
  const kairos::search::EvalFn eval = [qps](const kairos::cloud::Config&) {
    return qps;
  };
  for (auto _ : state) {
    const auto result = kairos::search::KairosPlusSearch(ranked, eval);
    if (result.evals != 1) {
      state.SkipWithError("expected exactly one evaluation");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["configs"] =
      benchmark::Counter(static_cast<double>(w.space.size()));
}
BENCHMARK(BM_KairosPlusWholeSpace)->Apply(BudgetArgs);

void BM_PlanConfigurationEndToEnd(benchmark::State& state) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  // Create() cannot refuse a Table-3 model with default options.
  core::Kairos kairos = *core::Kairos::Create(catalog, "RM2");
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kairos.PlanConfiguration());
  }
}
BENCHMARK(BM_PlanConfigurationEndToEnd);

}  // namespace

BENCHMARK_MAIN();
