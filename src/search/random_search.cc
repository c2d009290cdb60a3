#include "search/random_search.h"

#include <algorithm>

#include "common/rng.h"

namespace kairos::search {

SearchResult RandomSearch(const std::vector<cloud::Config>& configs,
                          const EvalFn& eval, const SearchOptions& options) {
  CountingEvaluator evaluator(eval);
  CandidatePool pool(configs);

  std::vector<cloud::Config> order = configs;
  Rng rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng.engine());

  for (const cloud::Config& c : order) {
    if (pool.empty() || evaluator.evals() >= options.max_evals) break;
    if (!pool.Contains(c)) continue;

    const double qps = evaluator(c);
    pool.Remove(c);
    if (options.subconfig_pruning) pool.RemoveSubConfigsOf(c);
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
