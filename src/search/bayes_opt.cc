#include "search/bayes_opt.h"

#include <algorithm>

#include "common/rng.h"
#include "search/gp.h"

namespace kairos::search {
namespace {

constexpr std::size_t kInitialDesign = 5;  ///< random seed evaluations

// Normalizes count vectors to [0, 1] per dimension so one GP lengthscale
// fits all types regardless of how many instances the budget affords.
std::vector<std::vector<double>> Normalize(
    const std::vector<cloud::Config>& configs) {
  if (configs.empty()) return {};
  const std::size_t dims = configs[0].NumTypes();
  std::vector<double> max_count(dims, 1.0);
  for (const cloud::Config& c : configs) {
    for (std::size_t d = 0; d < dims; ++d) {
      max_count[d] = std::max(max_count[d], static_cast<double>(c.counts()[d]));
    }
  }
  std::vector<std::vector<double>> out;
  out.reserve(configs.size());
  for (const cloud::Config& c : configs) {
    std::vector<double> x(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      x[d] = static_cast<double>(c.counts()[d]) / max_count[d];
    }
    out.push_back(std::move(x));
  }
  return out;
}

}  // namespace

SearchResult BayesOptSearch(const std::vector<cloud::Config>& configs,
                            const EvalFn& eval, const SearchOptions& options) {
  CountingEvaluator evaluator(eval);
  CandidatePool pool(configs);
  Rng rng(options.seed);
  if (configs.empty()) return evaluator.ToResult();

  const std::vector<std::vector<double>> features = Normalize(configs);
  std::map<cloud::Config, std::size_t> feature_index;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    feature_index.emplace(configs[i], i);
  }

  std::vector<std::vector<double>> seen_x;
  std::vector<double> seen_y;
  auto evaluate = [&](const cloud::Config& c) {
    const double qps = evaluator(c);
    seen_x.push_back(features[feature_index.at(c)]);
    seen_y.push_back(qps);
    pool.Remove(c);
    if (options.subconfig_pruning) pool.RemoveSubConfigsOf(c);
    return qps;
  };
  auto done = [&] {
    return pool.empty() || evaluator.evals() >= options.max_evals ||
           (options.target_qps > 0.0 &&
            evaluator.best_qps() >= options.target_qps);
  };

  // Initial design: random distinct candidates.
  {
    std::vector<cloud::Config> shuffled = configs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    for (std::size_t i = 0;
         i < std::min(kInitialDesign, shuffled.size()) && !done(); ++i) {
      evaluate(shuffled[i]);
    }
  }

  GaussianProcess gp;
  while (!done()) {
    gp.Fit(seen_x, seen_y);
    const double best = evaluator.best_qps();

    double best_ei = -1.0;
    const cloud::Config* next = nullptr;
    const std::vector<cloud::Config> remaining = pool.Remaining();
    for (const cloud::Config& c : remaining) {
      const auto p = gp.Predict(features[feature_index.at(c)]);
      const double ei = ExpectedImprovement(p.mean, p.stddev, best);
      if (ei > best_ei) {
        best_ei = ei;
        next = &c;
      }
    }
    if (next == nullptr) break;
    // Copy before evaluate() mutates the pool the pointer aims into.
    const cloud::Config chosen = *next;
    evaluate(chosen);
  }
  return evaluator.ToResult();
}

}  // namespace kairos::search
