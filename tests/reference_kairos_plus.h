// Test-only oracle: the Kairos+ walk that src/search/kairos_plus.cc
// replaced, kept verbatim except that its CandidatePool is inlined, along
// with the pool's predicate pass that was deleted with it. It copies the
// ranked configs into the pool, indexes them and their bounds in
// Config-keyed maps, and prunes every live candidate through a map lookup
// after each evaluation. The production search keeps one flag per ranked
// position instead. On a list of distinct configs it must call the EvalFn
// with the same configs in the same order and return the same
// SearchResult, every double bit for bit.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "search/search.h"
#include "ub/selector.h"

namespace kairos::search::reference {

inline SearchResult ReferenceKairosPlusSearch(
    const std::vector<ub::RankedConfig>& ranked, const EvalFn& eval,
    const SearchOptions& options = {}) {
  CountingEvaluator evaluator(eval);

  std::vector<cloud::Config> configs;
  configs.reserve(ranked.size());
  std::map<cloud::Config, double> bound_of;
  for (const ub::RankedConfig& rc : ranked) {
    configs.push_back(rc.config);
    bound_of.emplace(rc.config, rc.upper_bound);
  }
  // CandidatePool pool(std::move(configs))
  const std::vector<cloud::Config> pool_configs = std::move(configs);
  std::vector<bool> alive(pool_configs.size(), true);
  std::map<cloud::Config, std::size_t> index;
  std::size_t alive_count = pool_configs.size();
  for (std::size_t i = 0; i < pool_configs.size(); ++i) {
    index.emplace(pool_configs[i], i);
  }

  for (const ub::RankedConfig& rc : ranked) {
    if (alive_count == 0 || evaluator.evals() >= options.max_evals) break;
    // CandidatePool::Contains(rc.config)
    const auto it = index.find(rc.config);
    if (it == index.end() || !alive[it->second]) continue;  // pruned earlier

    const double qps = evaluator(rc.config);
    // CandidatePool::Remove(rc.config)
    if (alive[it->second]) {
      alive[it->second] = false;
      --alive_count;
    }

    // Prune by upper bound: nothing bounded at or below the best observed
    // throughput can become the new best.
    const double best = evaluator.best_qps();
    // The pool's predicate pass, with bound_of.at(c) <= best.
    for (std::size_t i = 0; i < pool_configs.size(); ++i) {
      if (alive[i] && bound_of.at(pool_configs[i]) <= best) {
        alive[i] = false;
        --alive_count;
      }
    }
    // Prune sub-configurations of what we just measured.
    if (options.subconfig_pruning) {
      // CandidatePool::RemoveSubConfigsOf(rc.config)
      for (std::size_t i = 0; i < pool_configs.size(); ++i) {
        if (alive[i] && pool_configs[i].IsSubConfigOf(rc.config)) {
          alive[i] = false;
          --alive_count;
        }
      }
    }
    if (options.target_qps > 0.0 && qps >= options.target_qps) break;
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search::reference
