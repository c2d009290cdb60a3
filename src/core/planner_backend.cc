#include "core/planner_backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cloud/config_space.h"
#include "common/strings.h"

namespace kairos::core {
namespace {

/// Every backend plans against the monitored workload.
Status NeedMonitor(const PlanRequest& request) {
  if (request.monitor == nullptr) {
    return Status::InvalidArgument("plan request needs a query monitor");
  }
  return Status::Ok();
}

/// Shared validation: every backend needs a well-formed context and a
/// warmed monitor.
Status ValidateRequest(const PlannerContext& ctx, const PlanRequest& request) {
  if (Status s = ValidateContext(ctx); !s.ok()) return s;
  return NeedMonitor(request);
}

/// PlanOneShot as an outcome, shared by KairosBackend::Plan and the
/// default PlannerBackend::Probe.
StatusOr<PlannerOutcome> OneShotPlan(const PlannerContext& ctx,
                                     const PlanRequest& request) {
  if (Status s = NeedMonitor(request); !s.ok()) return s;
  auto plan = PlanOneShot(ctx, *request.monitor);
  if (!plan.ok()) return plan.status();
  PlannerOutcome outcome;
  outcome.config = plan->config;
  outcome.expected_qps = plan->ranked[plan->selection.chosen_rank].upper_bound;
  outcome.plan = *std::move(plan);
  return outcome;
}

/// One-shot Kairos: rank upper bounds, apply the similarity rule, spend
/// zero evaluations (Sec. 5.2).
class KairosBackend final : public PlannerBackend {
 public:
  std::string Name() const override { return "KAIROS"; }

  StatusOr<PlannerOutcome> Plan(const PlannerContext& ctx,
                                const PlanRequest& request) const override {
    return OneShotPlan(ctx, request);
  }
};

/// Kairos+ (Algorithm 1): upper-bound-guided online search over real
/// throughput evaluations.
class KairosPlusBackend final : public PlannerBackend {
 public:
  std::string Name() const override { return "KAIROS+"; }
  bool NeedsEvaluations() const override { return true; }

  StatusOr<PlannerOutcome> Plan(const PlannerContext& ctx,
                                const PlanRequest& request) const override {
    if (Status s = NeedMonitor(request); !s.ok()) return s;
    auto result = PlanKairosPlus(ctx, *request.monitor, request.eval,
                                 request.search);
    if (!result.ok()) return result.status();
    PlannerOutcome outcome;
    outcome.config = result->best_config;
    outcome.expected_qps = result->best_qps;
    outcome.evaluations = result->evals;
    return outcome;
  }
};

/// HOMOGENEOUS's pick for a valid request: as many base instances as the
/// budget buys, or kInfeasible when it buys none (the case in which
/// cloud::BestHomogeneous throws; a NaN budget buys none either).
StatusOr<cloud::Config> HomogeneousPick(const PlannerContext& ctx,
                                        const PlanRequest& request) {
  if (Status s = ValidateRequest(ctx, request); !s.ok()) return s;
  const double base_price =
      (*ctx.catalog)[ctx.catalog->BaseType()].price_per_hour;
  if (!(std::floor(ctx.budget_per_hour / base_price + 1e-9) >= 1.0)) {
    return Status::Infeasible("budget " +
                              FormatDollarsPerHour(ctx.budget_per_hour) +
                              " does not buy one base instance");
  }
  return cloud::BestHomogeneous(*ctx.catalog, ctx.budget_per_hour);
}

/// The paper's Sec. 4 baseline: as many base instances as the budget buys.
class HomogeneousBackend final : public PlannerBackend {
 public:
  std::string Name() const override { return "HOMOGENEOUS"; }

  StatusOr<PlannerOutcome> Plan(const PlannerContext& ctx,
                                const PlanRequest& request) const override {
    auto config = HomogeneousPick(ctx, request);
    if (!config.ok()) return config.status();
    PlannerOutcome outcome;
    outcome.config = *std::move(config);
    if (request.eval != nullptr) {
      outcome.expected_qps = request.eval(outcome.config);
      outcome.evaluations = 1;
    }
    return outcome;
  }

  /// Probes with the baseline's own pick — the UB estimate of the
  /// max-base-instances config, not the heterogeneous ranking's winner —
  /// so allocators see what HOMOGENEOUS would actually deploy.
  StatusOr<PlannerOutcome> Probe(const PlannerContext& ctx,
                                 const PlanRequest& request) const override {
    auto config = HomogeneousPick(ctx, request);
    if (!config.ok()) return config.status();
    PlannerOutcome outcome;
    outcome.config = *std::move(config);
    outcome.expected_qps =
        ub::UpperBoundEstimator(*ctx.catalog, *ctx.truth, ctx.qos_ms)
            .QpsMax(outcome.config, *request.monitor);
    return outcome;
  }
};

/// Exhaustive baseline: really evaluate every budgeted configuration
/// (bounded by SearchOptions::max_evals) and keep the best.
class BruteForceBackend final : public PlannerBackend {
 public:
  std::string Name() const override { return "BRUTE-FORCE"; }
  bool NeedsEvaluations() const override { return true; }

  StatusOr<PlannerOutcome> Plan(const PlannerContext& ctx,
                                const PlanRequest& request) const override {
    if (Status s = ValidateRequest(ctx, request); !s.ok()) return s;
    if (Status s = ValidateEvaluations(Name(), request.eval, request.search);
        !s.ok()) {
      return s;
    }
    auto space = BudgetedSpace(ctx);
    if (!space.ok()) return space.status();
    PlannerOutcome outcome;
    double best = -1.0;
    for (const cloud::Config& config : *space) {
      if (outcome.evaluations >= request.search.max_evals) break;
      const double qps = request.eval(config);
      ++outcome.evaluations;
      if (qps > best) {
        best = qps;
        outcome.config = config;
        outcome.expected_qps = qps;
      }
      if (request.search.target_qps > 0.0 &&
          best >= request.search.target_qps) {
        break;
      }
    }
    return outcome;
  }
};

const PlannerRegistrar kKairos(
    "KAIROS", "one-shot upper-bound ranking + similarity rule (Sec. 5.2)",
    [] { return std::make_unique<KairosBackend>(); });
const PlannerRegistrar kKairosPlus(
    "KAIROS+", "upper-bound-guided online search, Algorithm 1",
    [] { return std::make_unique<KairosPlusBackend>(); });
const PlannerRegistrar kHomogeneous(
    "HOMOGENEOUS", "max base instances within budget (Sec. 4 baseline)",
    [] { return std::make_unique<HomogeneousBackend>(); });
const PlannerRegistrar kBruteForce(
    "BRUTE-FORCE", "evaluate every budgeted configuration, keep the best",
    [] { return std::make_unique<BruteForceBackend>(); });

}  // namespace

StatusOr<PlannerOutcome> PlannerBackend::Probe(
    const PlannerContext& ctx, const PlanRequest& request) const {
  // Analytic for every backend: a probe runs once per (model, budget
  // increment) during allocation, so real evaluations here would dwarf
  // the planning pass they are meant to guide.
  auto outcome = OneShotPlan(ctx, request);
  if (!outcome.ok()) return outcome;
  // Report the *best* upper bound in the budgeted space, not the
  // similarity-rule pick: the space only grows with budget, so this
  // estimate is monotone in ctx.budget_per_hour — exactly the property
  // marginal-utility water-filling needs (a locally dipping estimate
  // makes greedy allocation abandon a model that still scales).
  outcome->expected_qps = outcome->plan->ranked.front().upper_bound;
  return outcome;
}

}  // namespace kairos::core
