// Allowable-throughput evaluation (Sec. 3/7): the maximum Poisson arrival
// rate a deployment sustains with its p99 latency inside the QoS target.
// Implemented as the paper describes — raise the rate until QoS breaks —
// via geometric bracketing plus bisection. Every rate trial replays the
// *same* batch-size sequence (retimed), so scheme comparisons are not
// polluted by sampling noise, and runs it as a batch on a fresh
// serving::Engine: submit the whole trace, drain, check Totals().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cloud/config.h"
#include "policy/policy.h"
#include "serving/latency_predictor.h"
#include "serving/system.h"
#include "workload/batch_dist.h"

namespace kairos::serving {

/// Produces a fresh distribution policy; each trial's engine owns one.
using PolicyFactory = std::function<std::unique_ptr<policy::Policy>()>;

/// Evaluator knobs. Defaults target bench-quality fidelity in seconds of
/// wall time; scale `queries` up for higher precision.
struct EvalOptions {
  std::size_t queries = 600;   ///< trace length per rate trial
  int bisect_iters = 7;        ///< bisection refinement steps
  double rate_guess = 20.0;    ///< initial bracket guess, queries/sec
  std::uint64_t seed = 42;     ///< trace generation seed
};

/// Outcome of a throughput evaluation.
struct EvalResult {
  double qps = 0.0;  ///< allowable throughput (max passing rate)
  int trials = 0;    ///< simulation runs spent (the paper's "evaluations"
                     ///< correspond to one EvalResult, not one trial)
};

/// The allowable-throughput evaluator, for (catalog, config, model,
/// policy) tuples: every search algorithm, bench and
/// Kairos::MeasureThroughput measures through it. Each rate trial builds
/// an Engine (Engine::Create) over the config with a fresh
/// `policy_factory()` policy, `predictor_options`, and default
/// EngineOptions whose `run` is `run_options`. The config must hold at
/// least one instance of the catalog's arity: Create's refusal is thrown
/// as std::invalid_argument, since the result feeds search::EvalFn.
EvalResult EvaluateConfig(const cloud::Catalog& catalog,
                          const cloud::Config& config,
                          const latency::LatencyModel& truth, double qos_ms,
                          const PolicyFactory& policy_factory,
                          const workload::BatchDistribution& mix,
                          const EvalOptions& options,
                          PredictorOptions predictor_options = {},
                          RunOptions run_options = {});

}  // namespace kairos::serving
