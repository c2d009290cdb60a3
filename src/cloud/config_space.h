// Budget-constrained configuration-space enumeration (Sec. 5.2): all integer
// allocations whose hourly cost fits the budget, optionally requiring at
// least one base instance (without a base instance the largest queries can
// never meet QoS, so such configs have zero allowable throughput).
#pragma once

#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"

namespace kairos::cloud {

/// Enumeration options.
struct ConfigSpaceOptions {
  double budget_per_hour = 2.5;  ///< paper default $2.5/hr
  int min_base_instances = 1;    ///< require at least this many base nodes
};

/// Enumerates every config within budget, in lexicographic order.
/// The search space is small by construction (order of 1e2-1e4 configs).
std::vector<Config> EnumerateConfigs(const Catalog& catalog,
                                     const ConfigSpaceOptions& options);

/// The optimal homogeneous configuration (Sec. 4): the maximum number of
/// base instances that fits the budget, zero auxiliaries.
Config BestHomogeneous(const Catalog& catalog, double budget_per_hour);

/// The fraction of the budget a config leaves unused, in [0, 1].
double BudgetSlack(const Catalog& catalog, const Config& config,
                   double budget_per_hour);

}  // namespace kairos::cloud
