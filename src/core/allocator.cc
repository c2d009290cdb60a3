#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"

namespace kairos::core {
namespace {

constexpr double kEps = 1e-9;

/// Constraint validation shared by every allocator.
Status ValidateProblem(const AllocationProblem& problem) {
  if (problem.models.empty()) {
    return Status::InvalidArgument("allocation problem needs >= 1 model");
  }
  if (problem.budget_per_hour <= 0.0) {
    return Status::InvalidArgument("allocation budget must be positive, got " +
                                   FormatDollarsPerHour(problem.budget_per_hour));
  }
  double floor_sum = 0.0;
  for (const AllocModel& m : problem.models) {
    if (m.weight <= 0.0) {
      return Status::InvalidArgument("model " + m.name +
                                     ": weight must be positive");
    }
    if (m.arrival_scale <= 0.0) {
      return Status::InvalidArgument("model " + m.name +
                                     ": arrival_scale must be positive");
    }
    if (!(m.floor >= 0.0)) {  // NaN fails too
      return Status::InvalidArgument(
          "model " + m.name + ": needs a floor >= 0, got " +
          FormatDollarsPerHour(m.floor));
    }
    floor_sum += m.floor;
  }
  if (floor_sum > problem.budget_per_hour + kEps) {
    return Status::Infeasible(
        "per-model budget floors sum to " + FormatDollarsPerHour(floor_sum) +
        ", more than the global budget " +
        FormatDollarsPerHour(problem.budget_per_hour) +
        "; raise the budget or drop a model");
  }
  return Status::Ok();
}

/// The PR-1 weight-proportional split. A share below its model's floor is
/// an error (the historical Fleet behavior: raise the budget or the
/// weight).
class StaticAllocator final : public BudgetAllocator {
 public:
  std::string Name() const override { return "STATIC"; }

  StatusOr<std::vector<double>> Allocate(
      const AllocationProblem& problem) const override {
    if (Status s = ValidateProblem(problem); !s.ok()) return s;
    double total_weight = 0.0;
    for (const AllocModel& m : problem.models) total_weight += m.weight;

    std::vector<double> shares;
    shares.reserve(problem.models.size());
    for (const AllocModel& m : problem.models) {
      const double share =
          problem.budget_per_hour * m.weight / total_weight;
      if (share + kEps < m.floor) {
        return Status::Infeasible(
            "model " + m.name + ": budget share " +
            FormatDollarsPerHour(share) + " is below its floor " +
            FormatDollarsPerHour(m.floor) +
            "; raise the global budget or its weight");
      }
      shares.push_back(share);
    }
    return shares;
  }
};

/// Marginal-utility water-filling (DESIGN.md Sec. 7): start every model at
/// its floor, then repeatedly grant one budget increment to the model whose
/// probe reports the highest arrival-scaled marginal QPS per dollar, until
/// the budget is spent or all marginals vanish. Each round probes every
/// model one increment up, concurrently and memoized, so one round costs
/// at most one probe per model.
class MarginalAllocator final : public BudgetAllocator {
 public:
  std::string Name() const override { return "MARGINAL"; }
  bool NeedsProbes() const override { return true; }

  StatusOr<std::vector<double>> Allocate(
      const AllocationProblem& problem) const override {
    if (Status s = ValidateProblem(problem); !s.ok()) return s;
    if (problem.probe == nullptr) {
      return Status::FailedPrecondition(
          "allocator MARGINAL needs AllocationProblem::probe");
    }
    const std::size_t n = problem.models.size();
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);

    std::vector<double> shares(n);
    double remaining = problem.budget_per_hour;
    for (std::size_t i = 0; i < n; ++i) {
      // Floors may be zero (a model the operator is willing to starve),
      // but a zero share plans nothing — every model starts at its floor.
      shares[i] = problem.models[i].floor;
      remaining -= shares[i];
    }
    remaining = std::max(0.0, remaining);

    // Fine enough for ~32 grants of the spendable budget, but never below
    // a tenth of a cent to keep probe counts bounded.
    const double step = std::max(remaining / 32.0, 0.001);

    // Memoized probes keyed by (model, budget in millicents) — losers of a
    // round keep their cached candidate probe for the next round.
    std::map<std::pair<std::size_t, long long>, double> memo;
    const auto key = [](std::size_t i, double budget) {
      return std::make_pair(i, static_cast<long long>(std::llround(budget * 1e5)));
    };
    // One pool for the whole allocation: the grant loop calls probe_all
    // dozens of times, so per-round thread creation would rival the
    // analytic probes themselves. Single-worker problems stay inline.
    const std::size_t workers = ParallelismFor(problem.threads, n);
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    // The pooled path's per-miss probe results, reused across rounds.
    std::vector<StatusOr<double>> results;
    // Probes `budgets[j]` for every listed model through the memo. Every
    // miss is probed; the first failure in listing order is returned, so
    // the error names the same model at every thread count.
    const auto probe_all = [&](const std::vector<std::size_t>& models,
                               const std::vector<double>& budgets) {
      std::vector<std::size_t> misses;
      for (std::size_t j = 0; j < models.size(); ++j) {
        if (memo.find(key(models[j], budgets[j])) == memo.end()) {
          misses.push_back(j);
        }
      }
      const auto probe_one = [&](std::size_t k) {
        return problem.probe(models[misses[k]], budgets[misses[k]]);
      };
      Status error = Status::Ok();
      // Folds miss k's probe into the memo, in miss order.
      const auto record = [&](std::size_t k, StatusOr<double> qps) {
        const std::size_t i = models[misses[k]];
        const double budget = budgets[misses[k]];
        if (qps.ok()) {
          memo[key(i, budget)] = *qps;
        } else if (error.ok()) {
          error = Status(qps.status().code(),
                         "model " + problem.models[i].name + ": probe at " +
                             FormatDollarsPerHour(budget) + ": " +
                             qps.status().message());
        }
      };
      if (!pool.has_value()) {
        for (std::size_t k = 0; k < misses.size(); ++k) record(k, probe_one(k));
      } else {
        results.assign(misses.size(), 0.0);
        ParallelFor(*pool, misses.size(),
                    [&](std::size_t k) { results[k] = probe_one(k); });
        for (std::size_t k = 0; k < misses.size(); ++k) {
          record(k, std::move(results[k]));
        }
      }
      return error;
    };
    const auto probed = [&](std::size_t i, double budget) {
      return memo.at(key(i, budget));
    };

    // Baseline probes at the floors.
    if (Status s = probe_all(all, shares); !s.ok()) return s;
    std::vector<double> qps(n);
    for (std::size_t i = 0; i < n; ++i) qps[i] = probed(i, shares[i]);

    while (remaining > kEps) {
      const double grant = std::min(step, remaining);
      std::vector<double> budgets(n);
      for (std::size_t i = 0; i < n; ++i) budgets[i] = shares[i] + grant;
      if (Status s = probe_all(all, budgets); !s.ok()) return s;

      // Highest arrival-scaled marginal QPS wins the grant; the weight
      // prior breaks ties (then the listing order, for determinism).
      std::size_t best = n;
      double best_gain = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double gain = problem.models[i].arrival_scale *
                            (probed(i, budgets[i]) - qps[i]);
        const bool better =
            best == n || gain > best_gain + kEps ||
            (gain > best_gain - kEps &&
             problem.models[i].weight > problem.models[best].weight);
        if (better) {
          best = i;
          best_gain = gain;
        }
      }
      if (best_gain <= kEps) break;  // every model plateaued; stop spending
      shares[best] += grant;
      qps[best] = probed(best, shares[best]);
      remaining -= grant;
    }

    // Never do worse than the prior: when the weight-proportional split is
    // itself feasible and its probed total beats the water-filled one,
    // return it instead (probes are estimates; the prior encodes operator
    // intent).
    auto static_shares = StaticAllocator().Allocate(problem);
    if (static_shares.ok()) {
      if (Status s = probe_all(all, *static_shares); !s.ok()) return s;
      double ours = 0.0;
      double prior = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        ours += problem.models[i].arrival_scale * qps[i];
        prior += problem.models[i].arrival_scale *
                 probed(i, (*static_shares)[i]);
      }
      if (prior > ours + kEps) return *std::move(static_shares);
    }
    return shares;
  }
};

const AllocatorRegistrar kStatic(
    "STATIC", "weight-proportional split of the global budget",
    [] { return std::make_unique<StaticAllocator>(); });
const AllocatorRegistrar kMarginal(
    "MARGINAL",
    "water-filling on probed marginal QPS per dollar (floors, weight "
    "prior as tie-breaker)",
    [] { return std::make_unique<MarginalAllocator>(); });

}  // namespace

}  // namespace kairos::core
