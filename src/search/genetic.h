// Genetic-algorithm baseline (GENE in Fig. 11): a population of 10,
// 3-way tournament selection, uniform crossover (rate 0.8) and ±1
// mutation (rate 0.35) over the instance-count vectors, with infeasible
// offspring repaired back under the budget. These constants suit the
// ~1e3-config paper search space. Gets the same sub-configuration
// pruning as Kairos+ (Sec. 8.3).
#pragma once

#include "search/search.h"

namespace kairos::search {

/// GA-specific knobs.
struct GeneticOptions {
  std::size_t generations = 64;
};

SearchResult GeneticSearch(const std::vector<cloud::Config>& configs,
                           const EvalFn& eval,
                           const SearchOptions& options = {},
                           const GeneticOptions& ga = {});

}  // namespace kairos::search
