#include "cloud/config_space.h"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace kairos::cloud {

std::vector<Config> EnumerateConfigs(const Catalog& catalog,
                                     const ConfigSpaceOptions& options) {
  const std::size_t n = catalog.size();
  if (n == 0) return {};
  const TypeId base = catalog.BaseType();
  std::vector<Config> out;
  std::vector<int> counts(n, 0);

  // Depth-first over types; prune by remaining budget at each level.
  std::function<void(std::size_t, double)> visit = [&](std::size_t type,
                                                       double remaining) {
    if (type == n) {
      if (counts[base] < options.min_base_instances) return;
      out.emplace_back(counts);
      return;
    }
    const double price = catalog[type].price_per_hour;
    const int max_count = static_cast<int>(std::floor(remaining / price + 1e-9));
    for (int c = 0; c <= max_count; ++c) {
      counts[type] = c;
      visit(type + 1, remaining - c * price);
    }
    counts[type] = 0;
  };
  visit(0, options.budget_per_hour);
  return out;
}

Config BestHomogeneous(const Catalog& catalog, double budget_per_hour) {
  const TypeId base = catalog.BaseType();
  const double price = catalog[base].price_per_hour;
  const int count = static_cast<int>(std::floor(budget_per_hour / price + 1e-9));
  if (count < 1) {
    throw std::invalid_argument(
        "BestHomogeneous: budget cannot afford one base instance");
  }
  std::vector<int> counts(catalog.size(), 0);
  counts[base] = count;
  return Config(std::move(counts));
}

double BudgetSlack(const Catalog& catalog, const Config& config,
                   double budget_per_hour) {
  const double cost = config.CostPerHour(catalog);
  if (budget_per_hour <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - cost / budget_per_hour);
}

}  // namespace kairos::cloud
