// Simulated-annealing exploration (Fig. 2): a Metropolis walk over the
// configuration lattice (±1 instance on a random type, staying feasible).
// The paper uses this to demonstrate why *online* heterogeneous exploration
// is painful: most visited configurations underperform the homogeneous
// baseline while the walk converges.
#pragma once

#include "search/search.h"

namespace kairos::search {

/// Annealing knobs. The walk's temperature starts at 0.35 x max(1, the
/// first config's QPS) and cools geometrically by 0.92 per step.
struct AnnealingOptions {
  std::size_t steps = 40;
};

SearchResult AnnealingSearch(const std::vector<cloud::Config>& configs,
                             const EvalFn& eval,
                             const SearchOptions& options = {},
                             const AnnealingOptions& sa = {});

}  // namespace kairos::search
