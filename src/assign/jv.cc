#include "assign/jv.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

namespace kairos::assign {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Two-lane vectors (GCC/Clang vector extensions on the baseline ISA).
// Every lane op is the IEEE binary64 op a scalar loop would issue, so a
// lane computes exactly what the scalar solver (tests/reference_jv.h)
// computes; comparisons yield all-ones / all-zero lane masks.
using V2d = double __attribute__((vector_size(16)));
using V2i = decltype(V2d{} < V2d{});  // the lane-mask type, 2 x int64
static_assert(sizeof(V2i) == sizeof(V2d));

template <typename V, typename T>
V Load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V, typename T>
void Store(T* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// Lane-wise mask ? a : b for all-ones / all-zero masks, spelled as bit ops
// so the compiler never re-derives the mask lane by lane.
V2i Select(V2i mask, V2i a, V2i b) { return (a & mask) | (b & ~mask); }
V2d Select(V2i mask, V2d a, V2d b) {
  return reinterpret_cast<V2d>(Select(mask, reinterpret_cast<V2i>(a),
                                      reinterpret_cast<V2i>(b)));
}

// One Dijkstra-style augmenting search from free row `i` over an m x n cost
// slab (m <= n). Returns the sink column, or -1 if no path; on success
// *p_min_val is the path length and the visited rows / columns are the
// first *rows_seen / *cols_seen entries of ws.visited_rows / visited_cols.
//
// Results must match the scalar solver bit for bit, ties included, so
// the search replays its arithmetic and its scan order (DESIGN.md Sec.
// 14). The unvisited columns live in ws's list arrays in that order:
// nc-1..0 at the start, each pick swap-removed. Each (row, column)
// evaluates ((min_val + c) - u_i) - v_j and the strict "r < spc" update
// in one lane. The tie rule picks the first column in list order at the
// minimum, unless a free column ties it, in which case the last such free
// column. Each lane keeps one running minimum per half of that rule, and
// the lanes are folded after the scan.
int AugmentingPath(std::size_t nc, const double* cost, std::size_t i,
                   JvWorkspace& ws, double* p_min_val, std::size_t* rows_seen,
                   std::size_t* cols_seen) {
  std::int64_t* col = ws.list_col.data();
  double* lv = ws.list_v.data();
  double* spc = ws.list_spc.data();
  std::int64_t* path = ws.list_path.data();
  std::int64_t* free = ws.list_free.data();
  for (std::size_t k = 0; k < nc; ++k) {
    const std::size_t j = nc - k - 1;
    col[k] = static_cast<std::int64_t>(j);
    lv[k] = ws.v[j];
    spc[k] = kInf;
    free[k] = ws.row4col[j] == -1 ? -1 : 0;
  }
  std::size_t num_remaining = nc;
  std::size_t nrows = 0;
  std::size_t ncols = 0;
  double min_val = 0.0;

  while (true) {
    ws.visited_rows[nrows++] = static_cast<int>(i);
    if (num_remaining % 2 != 0) {
      // Lane-tail sentinel: v = NaN makes r NaN, so "r < spc" never
      // fires, spc stays +inf and the column never wins a minimum.
      col[num_remaining] = 0;
      lv[num_remaining] = std::numeric_limits<double>::quiet_NaN();
      spc[num_remaining] = kInf;
      free[num_remaining] = 0;
    }
    const double* row = cost + i * nc;
    const V2d base = {min_val, min_val};
    const V2d ui = {ws.u[i], ws.u[i]};
    const V2i row_id = {static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(i)};
    V2d lo = {kInf, kInf};       // per-lane minimum, first position at it
    V2i lo_at = {0, 0};
    V2d free_lo = {kInf, kInf};  // per-lane free minimum, last position
    V2i free_lo_at = {-1, -1};
    V2i at = {0, 1};
    for (std::size_t k = 0; k < num_remaining; k += 2) {
      const V2d c = {row[col[k]], row[col[k + 1]]};
      const V2d r = ((base + c) - ui) - Load<V2d>(lv + k);
      V2d s = Load<V2d>(spc + k);
      const V2i shorter = r < s;
      s = Select(shorter, r, s);
      Store(spc + k, s);
      Store(path + k, Select(shorter, row_id, Load<V2i>(path + k)));
      const V2i first = s < lo;
      lo = Select(first, s, lo);
      lo_at = Select(first, at, lo_at);
      const V2i last_free = Load<V2i>(free + k) & (s <= free_lo);
      free_lo = Select(last_free, s, free_lo);
      free_lo_at = Select(last_free, at, free_lo_at);
      at += 2;
    }
    // Fold the lanes: earlier position among equal minima, later position
    // among equal free minima.
    const int lane =
        lo[1] < lo[0] || (!(lo[0] < lo[1]) && lo_at[1] < lo_at[0]) ? 1 : 0;
    if (lo[lane] == kInf) return -1;  // infeasible
    std::size_t index = static_cast<std::size_t>(lo_at[lane]);
    const int free_lane = free_lo[1] < free_lo[0] ||
                                  (!(free_lo[0] < free_lo[1]) &&
                                   free_lo_at[1] > free_lo_at[0])
                              ? 1
                              : 0;
    if (free_lo[free_lane] == lo[lane]) {
      index = static_cast<std::size_t>(free_lo_at[free_lane]);
    }
    min_val = spc[index];  // the pick's own bits: +0 and -0 tie

    const std::size_t j = static_cast<std::size_t>(col[index]);
    ws.spc[j] = spc[index];
    ws.path[j] = static_cast<int>(path[index]);
    ws.visited_cols[ncols++] = static_cast<int>(j);
    const bool sink = free[index] != 0;
    --num_remaining;
    col[index] = col[num_remaining];
    lv[index] = lv[num_remaining];
    spc[index] = spc[num_remaining];
    path[index] = path[num_remaining];
    free[index] = free[num_remaining];
    if (sink) {
      *p_min_val = min_val;
      *rows_seen = nrows;
      *cols_seen = ncols;
      return static_cast<int>(j);
    }
    i = static_cast<std::size_t>(ws.row4col[j]);
  }
}

// Core solver for m <= n; scratch lives in (and resizes) `ws`. Returns
// ws.col4row.
const std::vector<int>& SolveWide(std::size_t nr, std::size_t nc,
                                  const std::vector<double>& cost,
                                  JvWorkspace& ws) {
  ws.u.assign(nr, 0.0);
  ws.v.assign(nc, 0.0);
  ws.col4row.assign(nr, -1);
  ws.row4col.assign(nc, -1);
  ws.spc.resize(nc);
  ws.path.resize(nc);
  ws.list_col.resize(nc + 1);
  ws.list_v.resize(nc + 1);
  ws.list_spc.resize(nc + 1);
  ws.list_path.resize(nc + 1);
  ws.list_free.resize(nc + 1);
  ws.visited_rows.resize(nr);
  ws.visited_cols.resize(nc);
  std::vector<double>& u = ws.u;
  std::vector<double>& v = ws.v;
  std::vector<int>& col4row = ws.col4row;
  std::vector<int>& row4col = ws.row4col;

  for (std::size_t cur_row = 0; cur_row < nr; ++cur_row) {
    double min_val = 0.0;
    std::size_t rows_seen = 0;
    std::size_t cols_seen = 0;
    const int sink = AugmentingPath(nc, cost.data(), cur_row, ws, &min_val,
                                    &rows_seen, &cols_seen);
    if (sink < 0) {
      throw std::runtime_error("SolveJv: infeasible cost matrix");
    }
    // Update dual variables. visited_rows[0] is cur_row itself.
    u[cur_row] += min_val;
    for (std::size_t k = 1; k < rows_seen; ++k) {
      const std::size_t i = static_cast<std::size_t>(ws.visited_rows[k]);
      u[i] += min_val - ws.spc[static_cast<std::size_t>(col4row[i])];
    }
    for (std::size_t k = 0; k < cols_seen; ++k) {
      const std::size_t j = static_cast<std::size_t>(ws.visited_cols[k]);
      v[j] -= min_val - ws.spc[j];
    }
    // Augment along the alternating path back from the sink.
    int j = sink;
    while (true) {
      const int i = ws.path[static_cast<std::size_t>(j)];
      row4col[static_cast<std::size_t>(j)] = i;
      std::swap(col4row[static_cast<std::size_t>(i)], j);
      if (i == static_cast<int>(cur_row)) break;
    }
  }
  return col4row;
}

}  // namespace
AssignmentResult SolveJv(const Matrix& cost) {
  JvWorkspace ws;
  return SolveJv(cost, ws);  // copies out of the local workspace
}

const AssignmentResult& SolveJv(const Matrix& cost, JvWorkspace& ws) {
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

  // Degenerate shapes dominate saturated serving rounds (one idle
  // instance against a window of queries, or one queued query against
  // the fleet): the optimal matching is a plain argmin, so skip the dual
  // machinery. Scanning ascending with a strict < picks the lowest index
  // among ties — the same pair the full solver returns for these shapes
  // (its single augmenting search scans columns in descending order and
  // lets later, i.e. lower, indices win ties).
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
    const std::vector<int>& col4row = SolveWide(m, n, cost.data(), ws);
    for (std::size_t i = 0; i < m; ++i) {
      result.col_for_row[i] = col4row[i];
      result.total_cost += cost(i, static_cast<std::size_t>(col4row[i]));
      ++result.matched;
    }
  } else {
    // Transpose into workspace scratch, solve, invert the mapping;
    // surplus rows stay -1.
    ws.transposed.resize(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ws.transposed[j * m + i] = cost(i, j);
      }
    }
    const std::vector<int>& col4row = SolveWide(n, m, ws.transposed, ws);
    for (std::size_t j = 0; j < n; ++j) {
      const int i = col4row[j];
      result.col_for_row[static_cast<std::size_t>(i)] = static_cast<int>(j);
      result.total_cost += cost(static_cast<std::size_t>(i), j);
      ++result.matched;
    }
  }
  return result;
}

bool IsValidMatching(const AssignmentResult& result, std::size_t rows,
                     std::size_t cols) {
  if (result.col_for_row.size() != rows) return false;
  std::vector<bool> used(cols, false);
  int matched = 0;
  for (int j : result.col_for_row) {
    if (j < 0) continue;
    if (static_cast<std::size_t>(j) >= cols) return false;
    if (used[static_cast<std::size_t>(j)]) return false;
    used[static_cast<std::size_t>(j)] = true;
    ++matched;
  }
  return matched == static_cast<int>(std::min(rows, cols)) &&
         matched == result.matched;
}

}  // namespace kairos::assign
