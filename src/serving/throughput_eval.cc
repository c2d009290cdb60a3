#include "serving/throughput_eval.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "serving/engine.h"
#include "workload/arrival.h"
#include "workload/trace.h"

namespace kairos::serving {

EvalResult EvaluateConfig(const cloud::Catalog& catalog,
                          const cloud::Config& config,
                          const latency::LatencyModel& truth, double qos_ms,
                          const PolicyFactory& policy_factory,
                          const workload::BatchDistribution& mix,
                          const EvalOptions& options,
                          PredictorOptions predictor_options,
                          RunOptions run_options) {
  SystemSpec spec;
  spec.catalog = &catalog;
  spec.config = config;
  spec.truth = &truth;
  spec.qos_ms = qos_ms;
  EngineOptions engine_options;
  engine_options.run = run_options;

  Rng rng(options.seed);
  const workload::PoissonArrivals unit_rate(1.0);
  // The batch-size sequence is generated once per evaluation; every
  // bracketing/bisection trial below replays it retimed into one reused
  // scratch trace (no per-trial allocation — this is the hot inner loop of
  // every search evaluation).
  const workload::Trace base =
      workload::Trace::Generate(unit_rate, mix, options.queries, rng);
  workload::Trace trial;

  EvalResult result;
  auto passes = [&](double rate) {
    ++result.trials;
    base.RetimedInto(rate, &trial);
    // Batch semantics: every arrival is scheduled, in trace order, before
    // any event fires; then the engine drains.
    auto created = Engine::Create(spec, policy_factory(), predictor_options,
                                  engine_options);
    if (!created.ok()) {
      throw std::invalid_argument("EvaluateConfig: " +
                                  created.status().message());
    }
    Engine& engine = **created;
    for (const workload::Query& q : trial.queries()) {
      const Status status = engine.Submit(q);
      if (!status.ok()) {
        throw std::logic_error("EvaluateConfig: " + status.message());
      }
    }
    engine.Drain();
    return engine.Totals().QosMet(qos_ms);
  };

  // Bracket the failure boundary geometrically from the initial guess.
  double lo = 0.0;
  double hi = std::max(1e-3, options.rate_guess);
  if (passes(hi)) {
    for (int i = 0; i < 24; ++i) {
      lo = hi;
      hi *= 2.0;
      if (!passes(hi)) break;
      if (i == 23) return {hi, result.trials};  // absurdly high; give up
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
    if (!found_passing) return {0.0, result.trials};  // cannot serve at all
  }

  // Bisect [lo passing, hi failing].
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

}  // namespace kairos::serving
