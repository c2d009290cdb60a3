// Query monitor (Sec. 5.2 "Remarks"): keeps a sliding window of the most
// recent query batch sizes (default 10,000) so the planner can read the
// batch-size mixture — the fraction f below any region boundary s — without
// extra profiling. This is the only workload knowledge Kairos assumes.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/status.h"
#include "workload/batch_dist.h"

namespace kairos::workload {

/// Sliding-window histogram over observed batch sizes.
class QueryMonitor {
 public:
  /// `window` = number of most recent queries retained.
  explicit QueryMonitor(std::size_t window = 10000);

  /// Records one observed batch size (clamped into [1, 1000]).
  void Observe(int batch_size);

  /// Number of observations currently in the window.
  std::size_t Count() const { return total_in_window_; }

  /// Fraction of windowed queries with batch size <= s. Returns 0 when the
  /// window is empty.
  double FractionAtOrBelow(int s) const;

  /// Mean batch size over the window (0 when empty).
  double MeanBatch() const;

  /// Mean batch size restricted to queries with batch <= s (0 if none).
  double MeanBatchAtOrBelow(int s) const;

  /// Mean batch size restricted to queries with batch > s (0 if none).
  double MeanBatchAbove(int s) const;

  /// Snapshot of the window as an empirical distribution.
  /// kFailedPrecondition when the window is empty (warm the monitor
  /// first). Until PR 5 this threw std::logic_error; it now follows the
  /// Status-based error convention of the rest of the public API.
  StatusOr<EmpiricalBatches> Snapshot() const;

  /// Marks `reference_mean` as the planning-time batch mix that
  /// BatchMixDrift() measures against. The no-argument form freezes the
  /// monitor's own current MeanBatch() — call it right after planning.
  void MarkPlanningReference(double reference_mean);
  void MarkPlanningReference() { MarkPlanningReference(MeanBatch()); }

  /// The marked planning-time mean batch size; 0 when never marked.
  double reference_mean_batch() const { return reference_mean_batch_; }

  /// Windowed drift statistic: |MeanBatch() - reference| / reference —
  /// the relative shift of the current window's mean batch size from the
  /// planning-time snapshot. 0 while the window is empty or no reference
  /// is marked, so callers can gate on it without extra emptiness checks.
  double BatchMixDrift() const;

  /// Clears the window (used when the workload regime changes and stale
  /// statistics should be dropped). The planning reference survives — it
  /// describes the plan, not the window.
  void Reset();

 private:
  std::size_t window_;
  std::deque<int> recent_;
  std::vector<std::size_t> histogram_;  // index = batch size, 0 unused
  std::size_t total_in_window_ = 0;
  double sum_in_window_ = 0.0;
  double reference_mean_batch_ = 0.0;
};

}  // namespace kairos::workload
