// The Kairos resource allocator (Sec. 5.2, Fig. 4 right half) as two
// functions over one problem statement, a PlannerContext plus the
// monitored workload. PlanOneShot enumerates the budgeted configuration
// space, estimates every upper bound, ranks, and applies the similarity
// rule, with no online evaluation. PlanKairosPlus is the KAIROS+ variant
// (Algorithm 1): it spends a bounded number of real evaluations guided by
// the same bounds. Both return a Status for bad input instead of
// throwing. The KAIROS and KAIROS+ registry backends
// (core/planner_backend.h) and the Kairos facade (core/kairos.h) all plan
// through them, so one input gets one answer on every path.
#pragma once

#include <string>
#include <vector>

#include "cloud/config_space.h"
#include "common/status.h"
#include "search/kairos_plus.h"
#include "search/search.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"
#include "workload/monitor.h"

namespace kairos::core {

/// Everything the planner needs to know about the deployment problem.
struct PlannerContext {
  const cloud::Catalog* catalog = nullptr;
  const latency::LatencyModel* truth = nullptr;
  double qos_ms = 0.0;
  double budget_per_hour = 2.5;  ///< paper default
};

/// A one-shot plan: the chosen configuration plus full diagnostics.
struct Plan {
  cloud::Config config;               ///< Kairos's pick
  ub::SelectionResult selection;      ///< how it was picked
  std::vector<ub::RankedConfig> ranked;  ///< all candidates, UB-descending
};

/// The one context check every planner runs: kInvalidArgument unless
/// `ctx` names a catalog and a truth model and has a positive QoS and
/// budget.
Status ValidateContext(const PlannerContext& ctx);

/// What evaluation-driven planning needs beyond a valid context:
/// kFailedPrecondition without an `eval` fn, kInvalidArgument when
/// `search.max_evals` is 0 (the search would have no measured
/// configuration to return). `planner` names the strategy in the message.
Status ValidateEvaluations(const std::string& planner,
                           const search::EvalFn& eval,
                           const search::SearchOptions& search);

/// The budgeted configuration space (>= 1 base instance) of a valid
/// context, or kInfeasible when not even one base instance fits.
StatusOr<std::vector<cloud::Config>> BudgetedSpace(const PlannerContext& ctx);

/// One-shot Kairos planning from monitored workload statistics.
/// kInvalidArgument for a malformed context, kInfeasible when no
/// configuration fits the budget.
StatusOr<Plan> PlanOneShot(const PlannerContext& ctx,
                           const workload::QueryMonitor& monitor);

/// KAIROS+: upper-bound-guided online search using `eval` for real
/// throughput measurements (Algorithm 1). The context is checked first,
/// then ValidateEvaluations, then the budget (kInfeasible).
StatusOr<search::SearchResult> PlanKairosPlus(
    const PlannerContext& ctx, const workload::QueryMonitor& monitor,
    const search::EvalFn& eval, const search::SearchOptions& search = {});

}  // namespace kairos::core
