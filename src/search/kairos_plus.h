// Kairos+ (Algorithm 1): upper-bound-assisted online search. Walks the
// configurations in descending upper-bound order; after each evaluation it
// (a) prunes every candidate whose upper bound cannot beat the best
// throughput seen so far, and (b) prunes every sub-configuration of the
// evaluated config. Terminates when the candidate pool is exhausted — at
// which point the best evaluated configuration is the optimum, assuming
// the upper bounds are valid.
#pragma once

#include "search/search.h"
#include "ub/selector.h"

namespace kairos::search {

/// Runs Algorithm 1 over a ranked candidate list (descending upper bound,
/// as produced by ub::RankByUpperBound). `ranked` must hold distinct
/// configs; every caller ranks an enumerated space, which guarantees it.
/// Each entry is judged by its own upper bound, so the walk's result does
/// not depend on the list being sorted.
SearchResult KairosPlusSearch(const std::vector<ub::RankedConfig>& ranked,
                              const EvalFn& eval,
                              const SearchOptions& options = {});

}  // namespace kairos::search
