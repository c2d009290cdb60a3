// Budget-allocation strategies for the multi-model Fleet: given one global
// $/hr envelope and per-model floors and priors, decide each model's
// share. Strategies are interchangeable objects selected by name from the
// AllocatorRegistry (common/registry.h, like every strategy plane):
//
//   * STATIC   — the weight-proportional split (PR 1 behavior);
//   * MARGINAL — iterative water-filling on marginal QPS per dollar,
//                driven by planner-backend probes (DESIGN.md Sec. 7).
//
// Allocators never talk to planners directly; the Fleet hands them an
// AllocationProblem whose `probe` callback answers "what throughput would
// model i plan at budget b?". Probes of independent models are issued
// concurrently through common/parallel.h.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"

namespace kairos::core {

/// One model's allocation constraints and priors.
struct AllocModel {
  std::string name;
  /// Prior / tie-breaker: when two models report equal marginal utility
  /// (and under STATIC, always), budget follows the weights. Must be > 0.
  double weight = 1.0;
  /// Demand multiplier: this model's share of fleet arrival traffic
  /// relative to the others. MARGINAL weighs a model's marginal QPS by
  /// this factor (a model serving twice the traffic earns twice the
  /// credit per planned QPS). Must be > 0.
  double arrival_scale = 1.0;
  /// Minimum feasible share in $/hr (the Fleet passes the price of the
  /// cheapest base instance). Every allocator grants >= floor.
  double floor = 0.0;
};

/// Planned throughput (QPS) of model `index` when granted `budget_per_hour`.
/// Called concurrently for different models; must be thread-safe.
using ProbeFn =
    std::function<StatusOr<double>(std::size_t index, double budget_per_hour)>;

/// Everything an allocator needs to split one budget.
struct AllocationProblem {
  double budget_per_hour = 0.0;
  std::vector<AllocModel> models;
  /// Consulted only by allocators whose NeedsProbes() is true.
  ProbeFn probe;
  /// Concurrent probe fan-out; 0 = hardware concurrency.
  std::size_t threads = 0;
};

/// A budget-splitting strategy. Implementations must uphold, for every
/// returned share vector s: floor_i <= s_i for all i, and
/// sum(s) <= budget_per_hour (+ float tolerance). Infeasible constraints
/// (sum of floors exceeding the budget) come back as kInfeasible naming
/// the binding model, never as a clamped-but-wrong answer.
class BudgetAllocator {
 public:
  virtual ~BudgetAllocator() = default;

  /// Canonical allocator name ("STATIC", "MARGINAL").
  virtual std::string Name() const = 0;

  /// True when Allocate() consults AllocationProblem::probe.
  virtual bool NeedsProbes() const { return false; }

  /// Splits the budget; result[i] is models[i]'s share in $/hr.
  virtual StatusOr<std::vector<double>> Allocate(
      const AllocationProblem& problem) const = 0;
};

/// Process-wide name -> allocator table (common/registry.h): static
/// registrars populate it and lookup is case-insensitive. Allocators take
/// no knobs.
class AllocatorRegistry : public Registry<BudgetAllocator> {
 public:
  static AllocatorRegistry& Global() {
    static AllocatorRegistry* registry = new AllocatorRegistry();
    return *registry;
  }

 private:
  AllocatorRegistry() : Registry("allocator") {}
};

using AllocatorRegistrar = Registrar<AllocatorRegistry>;

}  // namespace kairos::core

namespace kairos {
using core::AllocatorRegistry;
using core::BudgetAllocator;
}  // namespace kairos
