// Jonker–Volgenant shortest-augmenting-path solver for dense rectangular
// min-cost assignment (Jonker & Volgenant 1987; the rectangular variant
// follows Crouse 2016, the same algorithm behind
// scipy.optimize.linear_sum_assignment that the paper's implementation
// calls). O(n^3) worst case: each of the min(m, n) rows runs one
// Dijkstra-style search, each search step scans every unvisited column.
// On the Kairos controller's matrices (tens of queries x tens of
// instances, near-tied within an instance type) a search takes ~17 steps,
// so the column scan is the whole cost; it handles two columns at a time
// in vector lanes and replays the scalar arithmetic and tie-break exactly
// (DESIGN.md Sec. 14).
#pragma once

#include <cstdint>

#include "assign/assignment.h"

namespace kairos::assign {

/// Reusable scratch for SolveJv. A caller that solves one matching per
/// round (the Kairos policy) keeps a workspace alive so steady-state
/// solves perform zero heap allocations: every internal vector and the
/// result itself grow to the high-water problem size and stay there.
struct JvWorkspace {
  /// Dual potentials of rows (u) and columns (v).
  std::vector<double> u, v;
  /// The matching so far, -1 where unmatched.
  std::vector<int> col4row, row4col;
  /// Per column, written when a search visits it: its final
  /// shortest-path cost and the row it was reached from.
  std::vector<double> spc;
  std::vector<int> path;
  /// The running search's unvisited columns in scan order, one array per
  /// field, swap-removed together: column index, its dual v, its
  /// shortest-path cost so far, the row that set that cost, and an
  /// all-ones mask when the column is unmatched. Sized n + 1: the slot
  /// past the live end holds the odd-length lane-tail sentinel.
  std::vector<std::int64_t> list_col;
  std::vector<double> list_v, list_spc;
  std::vector<std::int64_t> list_path, list_free;
  /// Rows and columns the running search visited, in visit order.
  std::vector<int> visited_rows, visited_cols;
  std::vector<double> transposed;  ///< scratch for the m > n case
  AssignmentResult result;
};

/// Solves min-cost rectangular assignment on a dense cost matrix. All costs
/// must be finite. Throws std::invalid_argument on non-finite costs.
AssignmentResult SolveJv(const Matrix& cost);

/// Allocation-free variant: scratch and result live in `ws`; the returned
/// reference is to ws.result and is invalidated by the next call.
const AssignmentResult& SolveJv(const Matrix& cost, JvWorkspace& ws);

}  // namespace kairos::assign
