#include "search/annealing.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"

namespace kairos::search {
namespace {

constexpr double kInitialTemperature = 0.35;  ///< relative to observed QPS
constexpr double kCooling = 0.92;             ///< geometric, per step

}  // namespace

SearchResult AnnealingSearch(const std::vector<cloud::Config>& configs,
                             const EvalFn& eval, const SearchOptions& options,
                             const AnnealingOptions& sa) {
  CountingEvaluator evaluator(eval);
  CandidatePool pool(configs);
  std::set<cloud::Config> valid(configs.begin(), configs.end());
  Rng rng(options.seed);
  if (configs.empty()) return evaluator.ToResult();

  auto evaluate = [&](const cloud::Config& c) {
    const double qps = evaluator(c);
    pool.Remove(c);
    if (options.subconfig_pruning) pool.RemoveSubConfigsOf(c);
    return qps;
  };
  auto done = [&] {
    return pool.empty() || evaluator.evals() >= options.max_evals ||
           (options.target_qps > 0.0 &&
            evaluator.best_qps() >= options.target_qps);
  };

  // Random feasible starting point.
  cloud::Config current = configs[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(configs.size()) - 1))];
  double current_qps = evaluate(current);
  double temperature = kInitialTemperature * std::max(1.0, current_qps);

  const std::size_t dims = current.NumTypes();
  for (std::size_t step = 0; step < sa.steps && !done(); ++step) {
    // Propose a feasible neighbor: ±1 on one random type.
    cloud::Config neighbor = current;
    bool found = false;
    for (int attempt = 0; attempt < 16 && !found; ++attempt) {
      std::vector<int> counts = current.counts();
      const std::size_t d = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(dims) - 1));
      counts[d] += rng.Bernoulli(0.5) ? 1 : -1;
      if (counts[d] < 0) continue;
      cloud::Config candidate(counts);
      if (valid.count(candidate) == 0) continue;
      neighbor = std::move(candidate);
      found = true;
    }
    if (!found) break;  // isolated point; stop the walk

    const double neighbor_qps = evaluate(neighbor);
    const double delta = neighbor_qps - current_qps;
    if (delta >= 0.0 ||
        rng.Uniform() < std::exp(delta / std::max(1e-9, temperature))) {
      current = neighbor;
      current_qps = neighbor_qps;
    }
    temperature *= kCooling;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
