// Shared plumbing for the figure-reproduction harnesses: fidelity scaling,
// standard evaluation options, and the per-scheme throughput evaluators the
// paper's comparisons repeat across figures.
#pragma once

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cloud/config_space.h"
#include "common/env.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/kairos.h"
#include "core/planner_backend.h"
#include "oracle/oracle.h"
#include "policy/registry.h"
#include "search/hill_climb.h"
#include "serving/throughput_eval.h"

namespace kairos::bench {

/// Unwraps a StatusOr in bench context: bench inputs are compiled-in, so
/// a registry miss is a programming error worth dying loudly over.
template <typename T>
T OrDie(StatusOr<T> result) {
  if (!result.ok()) {
    std::cerr << "bench: " << result.status().ToString() << "\n";
    std::abort();
  }
  return *std::move(result);
}

/// Status flavor, for fallible calls without a payload.
inline void OrDie(const Status& status) {
  if (!status.ok()) {
    std::cerr << "bench: " << status.ToString() << "\n";
    std::abort();
  }
}

/// Table-3 model order used by every multi-model figure.
inline const std::vector<std::string>& Models() {
  static const std::vector<std::string> models = {"NCF", "RM2", "WND",
                                                  "MT-WND", "DIEN"};
  return models;
}

/// Standard evaluation fidelity: scaled by KAIROS_BENCH_SCALE.
inline serving::EvalOptions StdEval(double rate_guess) {
  serving::EvalOptions opt;
  opt.queries = ScaledCount(800, 200);
  opt.bisect_iters = 6;
  opt.rate_guess = rate_guess;
  return opt;
}

/// Context for one (model, catalog, budget) experiment.
struct ModelBench {
  ModelBench(const cloud::Catalog& catalog, const std::string& model,
             double budget = 2.5, double qos_scale = 1.0)
      : catalog_(catalog),
        spec(latency::FindModel(model)),
        truth(spec.Instantiate(catalog)),
        qos_ms(spec.qos_ms * qos_scale),
        budget_per_hour(budget) {}

  const cloud::Catalog& catalog() const { return catalog_; }

  /// The budgeted config space (>= 1 base node).
  std::vector<cloud::Config> Space() const {
    return cloud::EnumerateConfigs(
        catalog_, {.budget_per_hour = budget_per_hour,
                   .min_base_instances = 1});
  }

  /// Allowable throughput of `config` under a registry-resolved scheme.
  /// DRS thresholds are tuned separately (see TuneDrsThreshold) and
  /// passed in as the scheme's "threshold" knob.
  double Throughput(const cloud::Config& config, const std::string& scheme,
                    const workload::BatchDistribution& mix, double rate_guess,
                    int drs_threshold = 200,
                    serving::PredictorOptions predictor = {}) const {
    policy::KnobMap knobs;
    if (CanonicalName(scheme) == "DRS") {
      knobs["threshold"] = static_cast<double>(drs_threshold);
    }
    const auto factory =
        OrDie(PolicyRegistry::Global().MakeFactory(scheme, knobs));
    return serving::EvaluateConfig(catalog_, config, truth, qos_ms, factory,
                                   mix, StdEval(rate_guess), predictor)
        .qps;
  }

  /// Plans one configuration with a registry-selected backend — the one
  /// entry point all planner comparisons share. Evaluation-driven
  /// backends get `eval`; one-shot backends ignore it.
  core::PlannerOutcome PlanWith(const std::string& planner,
                                const workload::QueryMonitor& monitor,
                                const search::EvalFn& eval = nullptr,
                                const search::SearchOptions& search = {}) const {
    const auto backend = OrDie(core::PlannerRegistry::Global().Build(planner));
    core::PlanRequest request;
    request.monitor = &monitor;
    request.eval = eval;
    request.search = search;
    return OrDie(backend->Plan(
        core::PlannerContext{&catalog_, &truth, qos_ms, budget_per_hour},
        request));
  }

  /// Hill-climbs the DRS batch-size threshold for one config; returns the
  /// best threshold and (optionally) the number of probes spent.
  int TuneDrsThreshold(const cloud::Config& config,
                       const workload::BatchDistribution& mix,
                       double rate_guess, std::size_t* probes = nullptr) const {
    const std::vector<int> grid = search::DefaultThresholdGrid();
    auto eval = [&](int threshold) {
      return Throughput(config, "DRS", mix, rate_guess, threshold);
    };
    auto result = search::HillClimb(grid, eval);
    if (result.best_value <= 0.0) {
      // The climb started on a zero plateau (every probed threshold sends
      // QoS-infeasible batches to the aux pool); fall back to a full sweep,
      // which is what DeepRecSys's tuning degenerates to anyway.
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double v = eval(grid[i]);
        ++result.evals;
        if (v > result.best_value) {
          result.best_value = v;
          result.best_index = i;
        }
      }
    }
    if (probes != nullptr) *probes = result.evals;
    return grid[result.best_index];
  }

  /// Best configuration *for one scheme*, searched offline over a shortlist
  /// of the `shortlist` highest-oracle-throughput configs. This grants the
  /// baselines an even stronger advantage than the paper's oracle-config
  /// grant (Sec. 8.2): each scheme gets the config that maximizes its own
  /// achieved throughput.
  std::pair<cloud::Config, double> BestConfigForScheme(
      const std::string& scheme, const workload::BatchDistribution& mix,
      double rate_guess, std::size_t shortlist = 40) const {
    const auto space = Space();
    const auto oracle_rank = oracle::OracleSearch(
        catalog_, space, truth, qos_ms, mix, ScaledCount(3000, 800), 55);
    std::vector<std::size_t> order(space.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return oracle_rank.per_config_qps[a] > oracle_rank.per_config_qps[b];
    });
    // Shortlist: the oracle-top configs plus the most GPU-heavy configs
    // (FCFS-style schemes often do best near-homogeneous, which the oracle
    // ranking undervalues).
    std::vector<cloud::Config> shortlisted;
    for (std::size_t i = 0; i < std::min(shortlist, order.size()); ++i) {
      shortlisted.push_back(space[order[i]]);
    }
    {
      const cloud::TypeId base = catalog_.BaseType();
      std::vector<std::size_t> by_base = order;
      std::sort(by_base.begin(), by_base.end(),
                [&](std::size_t a, std::size_t b) {
                  if (space[a].Count(base) != space[b].Count(base)) {
                    return space[a].Count(base) > space[b].Count(base);
                  }
                  return space[a].TotalInstances() > space[b].TotalInstances();
                });
      for (std::size_t i = 0; i < std::min<std::size_t>(10, by_base.size());
           ++i) {
        shortlisted.push_back(space[by_base[i]]);
      }
    }
    cloud::Config best_config = shortlisted.front();
    double best_qps = 0.0;
    for (const cloud::Config& c : shortlisted) {
      double qps = 0.0;
      if (scheme == "DRS") {
        const int threshold = TuneDrsThreshold(c, mix, rate_guess);
        qps = Throughput(c, scheme, mix, rate_guess, threshold);
      } else {
        qps = Throughput(c, scheme, mix, rate_guess);
      }
      if (qps > best_qps) {
        best_qps = qps;
        best_config = c;
      }
    }
    return {best_config, best_qps};
  }

  /// Oracle throughput (clairvoyant reference).
  double Oracle(const cloud::Config& config,
                const workload::BatchDistribution& mix) const {
    return oracle::OracleThroughput(catalog_, config, truth, qos_ms, mix,
                                    ScaledCount(4000, 1000), /*seed=*/97);
  }

  /// Scaled best-homogeneous throughput (the paper's conservative baseline:
  /// unused budget is credited back to the homogeneous pool, Sec. 8.1).
  double ScaledHomogeneous(const workload::BatchDistribution& mix,
                           double rate_guess) const {
    const cloud::Config homo =
        cloud::BestHomogeneous(catalog_, budget_per_hour);
    const double raw = Throughput(homo, "KAIROS", mix, rate_guess);
    return raw * budget_per_hour / homo.CostPerHour(catalog_);
  }

  const cloud::Catalog& catalog_;
  const latency::ModelSpec& spec;
  latency::LatencyModel truth;
  double qos_ms;
  double budget_per_hour;
};

}  // namespace kairos::bench
