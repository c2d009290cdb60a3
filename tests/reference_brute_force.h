// Test-only oracle: exhaustive assignment by enumeration. Visits every
// matching of min(m, n) pairs and returns the cheapest. Exponential —
// intended only for matrices with min(m, n) <= ~8.
#pragma once

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "assign/assignment.h"

namespace kairos::assign::reference {

/// Optimal rectangular assignment by enumeration; same contract as SolveJv.
/// Throws std::invalid_argument when min(rows, cols) > 9 (too large).
inline AssignmentResult SolveBruteForce(const Matrix& cost) {
  const std::size_t m = cost.rows();
  const std::size_t n = cost.cols();
  AssignmentResult best;
  best.col_for_row.assign(m, -1);
  if (m == 0 || n == 0) return best;
  if (std::min(m, n) > 9) {
    throw std::invalid_argument("SolveBruteForce: problem too large");
  }

  best.total_cost = std::numeric_limits<double>::infinity();

  if (m <= n) {
    // Enumerate m-permutations of the n columns recursively, one row at a
    // time, so no full permutation's tail is shuffled for nothing.
    std::vector<int> chosen(m);
    std::vector<bool> used(n, false);
    double running = 0.0;
    auto recurse = [&](auto&& self, std::size_t row) -> void {
      if (row == m) {
        if (running < best.total_cost) {
          best.total_cost = running;
          for (std::size_t i = 0; i < m; ++i) best.col_for_row[i] = chosen[i];
        }
        return;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (used[j]) continue;
        used[j] = true;
        running += cost(row, j);
        chosen[row] = static_cast<int>(j);
        self(self, row + 1);
        running -= cost(row, j);
        used[j] = false;
      }
    };
    recurse(recurse, 0);
    best.matched = static_cast<int>(m);
  } else {
    const Matrix t = cost.Transposed();
    AssignmentResult transposed = SolveBruteForce(t);
    best.total_cost = transposed.total_cost;
    for (std::size_t j = 0; j < n; ++j) {
      const int i = transposed.col_for_row[j];
      best.col_for_row[static_cast<std::size_t>(i)] = static_cast<int>(j);
    }
    best.matched = transposed.matched;
  }
  return best;
}

}  // namespace kairos::assign::reference
