#include "search/kairos_plus.h"

namespace kairos::search {

SearchResult KairosPlusSearch(const std::vector<ub::RankedConfig>& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options) {
  CountingEvaluator evaluator(eval);

  // One flag per ranked position, and a count of live ones that ends the
  // walk as soon as nothing is left. Every position before the cursor has
  // been evaluated or pruned, so each pruning pass scans only the tail.
  std::vector<char> alive(ranked.size(), 1);
  std::size_t live = ranked.size();

  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (live == 0 || evaluator.evals() >= options.max_evals) break;
    if (!alive[i]) continue;  // pruned earlier

    const cloud::Config& config = ranked[i].config;
    const double qps = evaluator(config);
    alive[i] = 0;
    --live;

    // Prune by upper bound: nothing bounded at or below the best observed
    // throughput can become the new best. Then prune sub-configurations of
    // what we just measured.
    const double best = evaluator.best_qps();
    for (std::size_t j = i + 1; j < ranked.size(); ++j) {
      if (!alive[j]) continue;
      const ub::RankedConfig& rc = ranked[j];
      if (rc.upper_bound <= best ||
          (options.subconfig_pruning && rc.config.IsSubConfigOf(config))) {
        alive[j] = 0;
        --live;
      }
    }
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
