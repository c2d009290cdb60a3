#include "search/kairos_plus.h"

#include <map>

namespace kairos::search {

SearchResult KairosPlusSearch(const std::vector<ub::RankedConfig>& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options) {
  CountingEvaluator evaluator(eval);

  std::vector<cloud::Config> configs;
  configs.reserve(ranked.size());
  std::map<cloud::Config, double> bound_of;
  for (const ub::RankedConfig& rc : ranked) {
    configs.push_back(rc.config);
    bound_of.emplace(rc.config, rc.upper_bound);
  }
  CandidatePool pool(std::move(configs));

  for (const ub::RankedConfig& rc : ranked) {
    if (pool.empty() || evaluator.evals() >= options.max_evals) break;
    if (!pool.Contains(rc.config)) continue;  // pruned earlier

    const double qps = evaluator(rc.config);
    pool.Remove(rc.config);

    // Prune by upper bound: nothing bounded at or below the best observed
    // throughput can become the new best.
    const double best = evaluator.best_qps();
    pool.RemoveIf([&](const cloud::Config& c) {
      return bound_of.at(c) <= best;
    });
    // Prune sub-configurations of what we just measured.
    if (options.subconfig_pruning) {
      pool.RemoveSubConfigsOf(rc.config);
    }
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
