// Bayesian-optimization configuration search — the Ribbon allocation
// strategy (Sec. 7): five random seed evaluations, then a GP surrogate
// over the normalized instance-count lattice with expected-improvement
// acquisition, and (in Fig. 11's augmented comparison) the same
// sub-configuration pruning Kairos+ uses.
#pragma once

#include "search/search.h"

namespace kairos::search {

SearchResult BayesOptSearch(const std::vector<cloud::Config>& configs,
                            const EvalFn& eval,
                            const SearchOptions& options = {});

}  // namespace kairos::search
