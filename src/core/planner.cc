#include "core/planner.h"

#include "common/strings.h"

namespace kairos::core {

Status ValidateContext(const PlannerContext& ctx) {
  if (ctx.catalog == nullptr || ctx.truth == nullptr) {
    return Status::InvalidArgument("planner context needs catalog and truth");
  }
  if (ctx.qos_ms <= 0.0) {
    return Status::InvalidArgument("planner context needs a positive QoS");
  }
  if (ctx.budget_per_hour <= 0.0) {
    return Status::InvalidArgument("planner context needs a positive budget");
  }
  return Status::Ok();
}

Status ValidateEvaluations(const std::string& planner,
                           const search::EvalFn& eval,
                           const search::SearchOptions& search) {
  if (eval == nullptr) {
    return Status::FailedPrecondition(planner + " needs an eval fn");
  }
  if (search.max_evals == 0) {
    return Status::InvalidArgument(planner +
                                   " needs SearchOptions::max_evals > 0");
  }
  return Status::Ok();
}

StatusOr<std::vector<cloud::Config>> BudgetedSpace(const PlannerContext& ctx) {
  cloud::ConfigSpaceOptions options;
  options.budget_per_hour = ctx.budget_per_hour;
  options.min_base_instances = 1;
  std::vector<cloud::Config> space =
      cloud::EnumerateConfigs(*ctx.catalog, options);
  if (space.empty()) {
    return Status::Infeasible("no configuration with a base instance fits " +
                              FormatDollarsPerHour(ctx.budget_per_hour));
  }
  return space;
}

StatusOr<Plan> PlanOneShot(const PlannerContext& ctx,
                           const workload::QueryMonitor& monitor) {
  if (Status s = ValidateContext(ctx); !s.ok()) return s;
  auto space = BudgetedSpace(ctx);
  if (!space.ok()) return space.status();
  const ub::UpperBoundEstimator estimator(*ctx.catalog, *ctx.truth,
                                          ctx.qos_ms);
  const std::vector<double> bounds = estimator.EstimateAll(*space, monitor);
  Plan plan;
  plan.ranked = ub::RankByUpperBound(*space, bounds);
  plan.selection = ub::SelectConfiguration(plan.ranked, *ctx.catalog);
  plan.config = plan.selection.chosen;
  return plan;
}

StatusOr<search::SearchResult> PlanKairosPlus(
    const PlannerContext& ctx, const workload::QueryMonitor& monitor,
    const search::EvalFn& eval, const search::SearchOptions& search) {
  if (Status s = ValidateContext(ctx); !s.ok()) return s;
  if (Status s = ValidateEvaluations("KAIROS+", eval, search); !s.ok()) {
    return s;
  }
  auto space = BudgetedSpace(ctx);
  if (!space.ok()) return space.status();
  const ub::UpperBoundEstimator estimator(*ctx.catalog, *ctx.truth,
                                          ctx.qos_ms);
  const std::vector<double> bounds = estimator.EstimateAll(*space, monitor);
  const std::vector<ub::RankedConfig> ranked =
      ub::RankByUpperBound(*space, bounds);
  return search::KairosPlusSearch(ranked, eval, search);
}

}  // namespace kairos::core
