// Forwarding wrappers around the library's extension points. Each one
// forwards every call to the real implementation and, around the
// forwarded call, opens a span on the active recorder (span_recorder.h)
// and folds a few counts into the process-wide Observations. The library
// is not modified: the wrappers are registered under benchmark-only names
// in the library's own registries, and a workload selects them by name.
//
//   BENCH_KAIROS   PolicyRegistry       -> KAIROS policy
//   BENCH_STREAM   QuerySourceRegistry  -> STREAM source
//   BENCH_KAIROS   PlannerRegistry      -> KAIROS planner
//   BENCH_KAIROS+  PlannerRegistry      -> KAIROS+ planner
//   BENCH_QOS      ControllerRegistry   -> QOS controller
//
// search::EvalFn has no registry: the planner wrappers wrap the
// evaluation function of every PlanRequest they forward (ObserveEval).
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "search/search.h"

namespace perfbench {

inline constexpr const char* kPolicyName = "BENCH_KAIROS";
inline constexpr const char* kSourceName = "BENCH_STREAM";
inline constexpr const char* kOneShotPlannerName = "BENCH_KAIROS";
inline constexpr const char* kSearchPlannerName = "BENCH_KAIROS+";
inline constexpr const char* kControllerName = "BENCH_QOS";

/// Registers every wrapper; safe to call more than once. Aborts when a
/// registration fails (a benchmark-only name already taken).
void RegisterWrappers();

/// Counts the wrappers gather beside their spans, summed over every call
/// since the last Reset().
struct ObservationTotals {
  // Policy rounds, from each round's RoundContext and proposals.
  std::size_t rounds = 0;
  double waiting = 0.0;        ///< queries in the matcher window
  double idle = 0.0;           ///< idle instances
  double proposals = 0.0;      ///< assignments the policy proposed
  double started = 0.0;        ///< proposals onto idle instances
  double cells = 0.0;          ///< waiting x instances
  double distinct_cols = 0.0;  ///< distinct (type, available_at) columns
  // Query source.
  std::size_t emissions = 0;
  // Controller.
  std::size_t actions = 0;
  // Evaluations: wall time of each, in milliseconds, in completion order.
  std::vector<double> eval_ms;
  // Reference units the untraced planner wrappers ran (calibration.h).
  std::size_t units = 0;
  double unit_s = 0.0;
};

/// Thread-safe sink of ObservationTotals.
class Observations {
 public:
  static Observations& Global();

  void Reset();
  ObservationTotals Snapshot() const;

  void AddRound(double waiting, double idle, double proposals,
                double started, double cells, double distinct_cols);
  void AddEmission();
  void AddActions(std::size_t actions);
  void AddEval(double ms);
  void AddUnit(double seconds);

 private:
  mutable std::mutex mu_;
  ObservationTotals totals_;  ///< guarded by mu_
};

/// Wraps an evaluation function: each call is forwarded unchanged, timed
/// into Observations, and recorded as a serving.eval span when tracing.
/// Untraced, it first runs one reference unit (calibration.h) into
/// Observations, as the untraced planner wrapper does before each probe,
/// so the units sample the machine's speed throughout a PlanAll.
kairos::search::EvalFn ObserveEval(kairos::search::EvalFn inner);

}  // namespace perfbench
