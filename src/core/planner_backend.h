// Planner strategy interface: one-shot Kairos, evaluation-driven Kairos+,
// and the homogeneous / brute-force baselines are interchangeable objects
// selected by name from the PlannerRegistry, so benches, examples, and the
// Fleet facade drive "pick a configuration under this budget" through one
// surface regardless of which algorithm does the picking.
#pragma once

#include <optional>
#include <string>

#include "common/registry.h"
#include "core/planner.h"
#include "search/search.h"
#include "workload/monitor.h"

namespace kairos::core {

/// One planning request. Every backend needs the monitored workload; the
/// evaluation-driven backends additionally need `eval` (and honor
/// `search.max_evals` / `search.target_qps`).
struct PlanRequest {
  const workload::QueryMonitor* monitor = nullptr;
  /// Real throughput measurement of a configuration (queries/sec). Only
  /// consulted when the backend's NeedsEvaluations() is true.
  search::EvalFn eval;
  search::SearchOptions search;
};

/// What a backend decided, in a shape all backends share.
struct PlannerOutcome {
  cloud::Config config;        ///< the chosen configuration
  double expected_qps = 0.0;   ///< UB estimate or measured qps
  std::size_t evaluations = 0; ///< real evaluations spent (0 for one-shot)
  /// Full one-shot diagnostics (ranking, selection rule) when the backend
  /// produced them; empty for baselines that do not rank upper bounds.
  std::optional<Plan> plan;
};

/// A configuration-planning strategy bound to nothing: all problem state
/// arrives through (PlannerContext, PlanRequest).
class PlannerBackend {
 public:
  virtual ~PlannerBackend() = default;

  /// Canonical backend name ("KAIROS", "KAIROS+", ...).
  virtual std::string Name() const = 0;

  /// True when Plan() consults PlanRequest::eval.
  virtual bool NeedsEvaluations() const { return false; }

  /// Plans one configuration. Returns kInvalidArgument for a malformed
  /// context or, when NeedsEvaluations(), a zero search.max_evals;
  /// kFailedPrecondition when a required eval fn is missing; and
  /// kInfeasible when no configuration fits the budget.
  virtual StatusOr<PlannerOutcome> Plan(const PlannerContext& ctx,
                                        const PlanRequest& request) const = 0;

  /// Incremental budget probe: estimates what this backend would achieve
  /// at ctx.budget_per_hour, cheaply enough that the Fleet's MARGINAL
  /// allocator can call it once per (model, budget increment). The base
  /// implementation runs the one-shot upper-bound ranking — analytic, no
  /// real evaluations — regardless of NeedsEvaluations(), and never
  /// consults PlanRequest::eval. Same error contract as Plan() minus the
  /// two evaluation cases.
  virtual StatusOr<PlannerOutcome> Probe(const PlannerContext& ctx,
                                         const PlanRequest& request) const;
};

/// Process-wide name -> backend table (common/registry.h): static
/// registrars populate it and lookup is case-insensitive. Backends take
/// no knobs.
class PlannerRegistry : public Registry<PlannerBackend> {
 public:
  static PlannerRegistry& Global() {
    static PlannerRegistry* registry = new PlannerRegistry();
    return *registry;
  }

 private:
  PlannerRegistry() : Registry("planner") {}
};

using PlannerRegistrar = Registrar<PlannerRegistry>;

}  // namespace kairos::core

namespace kairos {
using core::PlannerBackend;
using core::PlannerRegistry;
}  // namespace kairos
