// Test-only oracle: the Hungarian (Kuhn–Munkres) assignment solver with
// potentials. Slower than the JV solver but completely independent code,
// so the production solver is cross-checked against it on problems too
// large to enumerate (the paper cites the Hungarian algorithm as the
// classical baseline of JV, Sec. 5.1).
#pragma once

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "assign/assignment.h"

namespace kairos::assign::reference {
namespace detail {

// Potential-based Hungarian method for an n x m problem with n <= m,
// 1-indexed internally (the classical formulation).
inline std::vector<int> HungarianWide(std::size_t n, std::size_t m,
                                      const std::vector<double>& a) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<std::size_t> p(m + 1, 0), way(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(m + 1, kInfinity);
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = kInfinity;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = a[(i0 - 1) * m + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> col4row(n, -1);
  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) col4row[p[j] - 1] = static_cast<int>(j - 1);
  }
  return col4row;
}

}  // namespace detail

/// Solves min-cost rectangular assignment; same contract as SolveJv.
inline AssignmentResult SolveHungarian(const Matrix& cost) {
  const std::size_t m = cost.rows();
  const std::size_t n = cost.cols();
  AssignmentResult result;
  result.col_for_row.assign(m, -1);
  if (m == 0 || n == 0) return result;

  for (double c : cost.data()) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument("SolveHungarian: non-finite cost");
    }
  }

  if (m <= n) {
    const std::vector<int> col4row = detail::HungarianWide(m, n, cost.data());
    for (std::size_t i = 0; i < m; ++i) {
      result.col_for_row[i] = col4row[i];
      result.total_cost += cost(i, static_cast<std::size_t>(col4row[i]));
      ++result.matched;
    }
  } else {
    const Matrix t = cost.Transposed();
    const std::vector<int> col4row = detail::HungarianWide(n, m, t.data());
    for (std::size_t j = 0; j < n; ++j) {
      const int i = col4row[j];
      result.col_for_row[static_cast<std::size_t>(i)] = static_cast<int>(j);
      result.total_cost += cost(static_cast<std::size_t>(i), j);
      ++result.matched;
    }
  }
  return result;
}

}  // namespace kairos::assign::reference
