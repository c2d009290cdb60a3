#include "search/genetic.h"

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace kairos::search {
namespace {

constexpr std::size_t kPopulation = 10;
constexpr double kCrossoverRate = 0.8;
constexpr double kMutationRate = 0.35;
constexpr std::size_t kTournament = 3;

// Repairs a count vector to the nearest feasible candidate: must exist in
// the enumerated candidate set (which encodes budget and base-count rules).
// Decrements counts greedily until a member of the set is hit.
bool Repair(std::vector<int>& counts, const std::set<cloud::Config>& valid,
            Rng& rng) {
  for (int guard = 0; guard < 64; ++guard) {
    if (valid.count(cloud::Config(counts)) > 0) return true;
    // Decrement a random non-zero coordinate.
    std::vector<std::size_t> nonzero;
    for (std::size_t d = 0; d < counts.size(); ++d) {
      if (counts[d] > 0) nonzero.push_back(d);
    }
    if (nonzero.empty()) return false;
    const std::size_t d = nonzero[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nonzero.size()) - 1))];
    --counts[d];
  }
  return false;
}

}  // namespace

SearchResult GeneticSearch(const std::vector<cloud::Config>& configs,
                           const EvalFn& eval, const SearchOptions& options,
                           const GeneticOptions& ga) {
  CountingEvaluator evaluator(eval);
  CandidatePool pool(configs);
  std::set<cloud::Config> valid(configs.begin(), configs.end());
  Rng rng(options.seed);

  const std::size_t dims = configs.empty() ? 0 : configs[0].NumTypes();
  if (dims == 0) return evaluator.ToResult();

  auto evaluate = [&](const cloud::Config& c) -> double {
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

  // Initial population: random feasible candidates.
  std::vector<cloud::Config> population;
  std::vector<double> fitness;
  {
    std::vector<cloud::Config> shuffled = configs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    shuffled.resize(std::min(kPopulation, shuffled.size()));
    for (const cloud::Config& c : shuffled) {
      population.push_back(c);
      fitness.push_back(evaluate(c));
      if (done()) return evaluator.ToResult();
    }
  }

  auto tournament_pick = [&]() -> const cloud::Config& {
    std::size_t best = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(population.size()) - 1));
    for (std::size_t k = 1; k < kTournament; ++k) {
      const std::size_t cand = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(population.size()) - 1));
      if (fitness[cand] > fitness[best]) best = cand;
    }
    return population[best];
  };

  for (std::size_t gen = 0; gen < ga.generations && !done(); ++gen) {
    // Generate the whole generation's children, then evaluate them in
    // order. Selection and mutation read only the previous generation's
    // fitness and the RNG, never an evaluation result.
    std::vector<cloud::Config> children;
    // Attempt bound: a failed repair draws a fresh child, but a generation
    // never spins forever.
    std::size_t attempts_left = 64 * kPopulation + 1024;
    while (children.size() < kPopulation && attempts_left-- > 0) {
      const cloud::Config& a = tournament_pick();
      const cloud::Config& b = tournament_pick();
      std::vector<int> child(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        const bool from_a =
            rng.Bernoulli(kCrossoverRate) ? rng.Bernoulli(0.5) : true;
        child[d] = (from_a ? a : b).counts()[d];
      }
      if (rng.Bernoulli(kMutationRate)) {
        const std::size_t d = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(dims) - 1));
        child[d] = std::max(0, child[d] + (rng.Bernoulli(0.5) ? 1 : -1));
      }
      if (!Repair(child, valid, rng)) continue;
      children.emplace_back(child);
    }

    std::vector<cloud::Config> next_pop;
    std::vector<double> next_fit;
    for (const cloud::Config& config : children) {
      if (done()) break;
      const double qps = evaluate(config);
      next_pop.push_back(config);
      next_fit.push_back(qps);
    }
    if (next_pop.empty()) break;
    population = std::move(next_pop);
    fitness = std::move(next_fit);
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
