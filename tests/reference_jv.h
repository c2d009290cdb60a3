// Test-only oracle: the scalar Jonker–Volgenant solver that src/assign/jv.cc
// replaced, kept verbatim (augmenting search, dual update, 1xN / Mx1
// argmin short-circuit, transposition for m > n). The production solver
// must return the same col_for_row and a bitwise-equal total_cost on every
// input, and throw the same exception type where this one throws.
#pragma once

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "assign/assignment.h"

namespace kairos::assign::reference {
namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct JvWorkspace {
  std::vector<double> u, v, shortest_path_costs;
  std::vector<int> path, col4row, row4col;
  std::vector<bool> sr, sc;
  std::vector<std::size_t> remaining;
  std::vector<double> transposed;
  AssignmentResult result;
};

// One Dijkstra-style augmenting search from free row `cur_row` over an
// m x n cost slab (m <= n). Returns the sink column, or -1 if no path.
inline int AugmentingPath(std::size_t nc, const std::vector<double>& cost,
                          std::vector<double>& u, std::vector<double>& v,
                          std::vector<int>& path,
                          const std::vector<int>& row4col,
                          std::vector<double>& shortest_path_costs,
                          std::size_t i, std::vector<bool>& sr,
                          std::vector<bool>& sc,
                          std::vector<std::size_t>& remaining,
                          double* p_min_val) {
  double min_val = 0.0;
  std::size_t num_remaining = nc;
  for (std::size_t it = 0; it < nc; ++it) {
    remaining[it] = nc - it - 1;
  }
  std::fill(sr.begin(), sr.end(), false);
  std::fill(sc.begin(), sc.end(), false);
  std::fill(shortest_path_costs.begin(), shortest_path_costs.end(), kInf);

  int sink = -1;
  while (sink == -1) {
    std::size_t index = static_cast<std::size_t>(-1);
    double lowest = kInf;
    sr[i] = true;
    for (std::size_t it = 0; it < num_remaining; ++it) {
      const std::size_t j = remaining[it];
      const double r = min_val + cost[i * nc + j] - u[i] - v[j];
      if (r < shortest_path_costs[j]) {
        path[j] = static_cast<int>(i);
        shortest_path_costs[j] = r;
      }
      // Prefer sink columns on ties for a shorter augmentation.
      if (shortest_path_costs[j] < lowest ||
          (shortest_path_costs[j] == lowest && row4col[j] == -1)) {
        lowest = shortest_path_costs[j];
        index = it;
      }
    }
    min_val = lowest;
    if (min_val == kInf) return -1;  // infeasible
    const std::size_t j = remaining[index];
    if (row4col[j] == -1) {
      sink = static_cast<int>(j);
    } else {
      i = static_cast<std::size_t>(row4col[j]);
    }
    sc[j] = true;
    remaining[index] = remaining[--num_remaining];
  }
  *p_min_val = min_val;
  return sink;
}

// Core solver for m <= n; scratch lives in (and resizes) `ws`. Returns
// ws.col4row.
inline const std::vector<int>& SolveWide(std::size_t nr, std::size_t nc,
                                         const std::vector<double>& cost,
                                         JvWorkspace& ws) {
  ws.u.assign(nr, 0.0);
  ws.v.assign(nc, 0.0);
  ws.shortest_path_costs.resize(nc);
  ws.path.assign(nc, -1);
  ws.col4row.assign(nr, -1);
  ws.row4col.assign(nc, -1);
  ws.sr.resize(nr);
  ws.sc.resize(nc);
  ws.remaining.resize(nc);
  std::vector<double>& u = ws.u;
  std::vector<double>& v = ws.v;
  std::vector<double>& shortest_path_costs = ws.shortest_path_costs;
  std::vector<int>& path = ws.path;
  std::vector<int>& col4row = ws.col4row;
  std::vector<int>& row4col = ws.row4col;
  std::vector<bool>& sr = ws.sr;
  std::vector<bool>& sc = ws.sc;
  std::vector<std::size_t>& remaining = ws.remaining;

  for (std::size_t cur_row = 0; cur_row < nr; ++cur_row) {
    double min_val = 0.0;
    const int sink =
        AugmentingPath(nc, cost, u, v, path, row4col, shortest_path_costs,
                       cur_row, sr, sc, remaining, &min_val);
    if (sink < 0) {
      throw std::runtime_error("SolveJv: infeasible cost matrix");
    }
    // Update dual variables.
    u[cur_row] += min_val;
    for (std::size_t i = 0; i < nr; ++i) {
      if (sr[i] && i != cur_row) {
        u[i] += min_val - shortest_path_costs[static_cast<std::size_t>(col4row[i])];
      }
    }
    for (std::size_t j = 0; j < nc; ++j) {
      if (sc[j]) v[j] -= min_val - shortest_path_costs[j];
    }
    // Augment along the alternating path back from the sink.
    int j = sink;
    while (true) {
      const int i = path[static_cast<std::size_t>(j)];
      row4col[static_cast<std::size_t>(j)] = i;
      std::swap(col4row[static_cast<std::size_t>(i)], j);
      if (i == static_cast<int>(cur_row)) break;
    }
  }
  return col4row;
}

}  // namespace detail

/// The replaced solver, end to end: same contract as assign::SolveJv.
inline AssignmentResult ReferenceSolveJv(const Matrix& cost) {
  detail::JvWorkspace ws;
  const std::size_t m = cost.rows();
  const std::size_t n = cost.cols();
  AssignmentResult& result = ws.result;
  result.col_for_row.assign(m, -1);
  result.total_cost = 0.0;
  result.matched = 0;
  if (m == 0 || n == 0) return result;

  for (double c : cost.data()) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument("SolveJv: non-finite cost");
    }
  }

  if (m == 1 || n == 1) {
    const std::vector<double>& c = cost.data();
    std::size_t best = 0;
    for (std::size_t k = 1; k < m * n; ++k) {
      if (c[k] < c[best]) best = k;
    }
    if (m == 1) {
      result.col_for_row[0] = static_cast<int>(best);
    } else {
      result.col_for_row[best] = 0;
    }
    result.total_cost = c[best];
    result.matched = 1;
    return result;
  }

  if (m <= n) {
    const std::vector<int>& col4row = detail::SolveWide(m, n, cost.data(), ws);
    for (std::size_t i = 0; i < m; ++i) {
      result.col_for_row[i] = col4row[i];
      result.total_cost += cost(i, static_cast<std::size_t>(col4row[i]));
      ++result.matched;
    }
  } else {
    ws.transposed.resize(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ws.transposed[j * m + i] = cost(i, j);
      }
    }
    const std::vector<int>& col4row =
        detail::SolveWide(n, m, ws.transposed, ws);
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
