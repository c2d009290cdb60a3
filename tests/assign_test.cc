#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "assign/jv.h"
#include "common/rng.h"
#include "reference_brute_force.h"
#include "reference_hungarian.h"
#include "reference_jv.h"

namespace kairos::assign {
namespace {

Matrix RandomCost(std::size_t m, std::size_t n, Rng& rng, double lo = 0.0,
                  double hi = 10.0) {
  Matrix cost(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) cost(i, j) = rng.Uniform(lo, hi);
  }
  return cost;
}

TEST(JvTest, TrivialOneByOne) {
  const Matrix cost{{7.0}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_EQ(r.col_for_row, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(r.total_cost, 7.0);
}

TEST(JvTest, KnownSquareCase) {
  // Optimal is the anti-diagonal: 1 + 2 + 3 = 6.
  const Matrix cost{{9.0, 9.0, 1.0}, {9.0, 2.0, 9.0}, {3.0, 9.0, 9.0}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_DOUBLE_EQ(r.total_cost, 6.0);
  EXPECT_EQ(r.col_for_row, (std::vector<int>{2, 1, 0}));
}

TEST(JvTest, MoreColumnsThanRows) {
  const Matrix cost{{5.0, 1.0, 8.0, 9.0}, {4.0, 6.0, 2.0, 9.0}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_EQ(r.matched, 2);
  EXPECT_DOUBLE_EQ(r.total_cost, 3.0);
  EXPECT_TRUE(IsValidMatching(r, 2, 4));
}

TEST(JvTest, MoreRowsThanColumns) {
  const Matrix cost{{5.0, 1.0}, {1.0, 6.0}, {9.0, 9.0}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_EQ(r.matched, 2);
  EXPECT_TRUE(IsValidMatching(r, 3, 2));
  // Row 2 (all expensive) must be the unmatched one.
  EXPECT_EQ(r.col_for_row[2], -1);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
}

TEST(JvTest, EmptyProblems) {
  EXPECT_EQ(SolveJv(Matrix(0, 5)).matched, 0);
  EXPECT_EQ(SolveJv(Matrix(5, 0)).matched, 0);
}

TEST(JvTest, NonFiniteCostThrows) {
  Matrix cost(2, 2, 1.0);
  cost(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SolveJv(cost), std::invalid_argument);
  cost(0, 0) = std::nan("");
  EXPECT_THROW(SolveJv(cost), std::invalid_argument);
}

TEST(JvTest, NegativeCostsHandled) {
  const Matrix cost{{-5.0, 2.0}, {3.0, -4.0}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_DOUBLE_EQ(r.total_cost, -9.0);
}

// Property sweep: JV == brute force on random rectangular problems of every
// small shape, across seeds.
struct ShapeSeed {
  std::size_t m, n;
  std::uint64_t seed;
};

class JvVsBruteForce : public ::testing::TestWithParam<ShapeSeed> {};

TEST_P(JvVsBruteForce, OptimalCostMatches) {
  const auto [m, n, seed] = GetParam();
  Rng rng(seed);
  for (int rep = 0; rep < 20; ++rep) {
    const Matrix cost = RandomCost(m, n, rng);
    const AssignmentResult jv = SolveJv(cost);
    const AssignmentResult bf = reference::SolveBruteForce(cost);
    EXPECT_TRUE(IsValidMatching(jv, m, n));
    EXPECT_NEAR(jv.total_cost, bf.total_cost, 1e-9)
        << "shape " << m << "x" << n << " rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallShapes, JvVsBruteForce,
    ::testing::Values(ShapeSeed{1, 1, 1}, ShapeSeed{2, 2, 2},
                      ShapeSeed{3, 3, 3}, ShapeSeed{4, 4, 4},
                      ShapeSeed{5, 5, 5}, ShapeSeed{6, 6, 6},
                      ShapeSeed{7, 7, 7}, ShapeSeed{2, 5, 8},
                      ShapeSeed{5, 2, 9}, ShapeSeed{3, 7, 10},
                      ShapeSeed{7, 3, 11}, ShapeSeed{1, 8, 12},
                      ShapeSeed{8, 1, 13}, ShapeSeed{6, 4, 14},
                      ShapeSeed{4, 6, 15}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "n" +
             std::to_string(info.param.n) + "s" +
             std::to_string(info.param.seed);
    });

// Cross-check the two independent polynomial solvers on larger problems.
class JvVsHungarian : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JvVsHungarian, CostsAgreeOnLargerProblems) {
  Rng rng(GetParam());
  for (const auto& [m, n] :
       {std::pair<std::size_t, std::size_t>{20, 20}, {15, 40}, {40, 15},
        {30, 33}, {64, 64}}) {
    const Matrix cost = RandomCost(m, n, rng);
    const AssignmentResult jv = SolveJv(cost);
    const AssignmentResult hu = reference::SolveHungarian(cost);
    EXPECT_TRUE(IsValidMatching(jv, m, n));
    EXPECT_TRUE(IsValidMatching(hu, m, n));
    EXPECT_NEAR(jv.total_cost, hu.total_cost, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JvVsHungarian,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(JvTest, DegenerateEqualCosts) {
  // All-equal costs: any perfect matching is optimal; must still be valid.
  const Matrix cost(6, 6, 3.0);
  const AssignmentResult r = SolveJv(cost);
  EXPECT_TRUE(IsValidMatching(r, 6, 6));
  EXPECT_DOUBLE_EQ(r.total_cost, 18.0);
}

TEST(JvTest, PenaltyStructureLikeKairos) {
  // Shape of the Kairos Eq. 8 matrices: a few huge penalty entries among
  // normal costs; the solver must route around penalties when possible.
  Matrix cost{{0.1, 100.0}, {0.2, 0.3}};
  const AssignmentResult r = SolveJv(cost);
  EXPECT_EQ(r.col_for_row, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(r.total_cost, 0.4);
}

TEST(BruteForceTest, TooLargeThrows) {
  EXPECT_THROW(reference::SolveBruteForce(Matrix(10, 10, 1.0)), std::invalid_argument);
}

TEST(IsValidMatchingTest, DetectsDuplicateColumns) {
  AssignmentResult r;
  r.col_for_row = {0, 0};
  r.matched = 2;
  EXPECT_FALSE(IsValidMatching(r, 2, 2));
}

TEST(IsValidMatchingTest, DetectsWrongCardinality) {
  AssignmentResult r;
  r.col_for_row = {0, -1};
  r.matched = 1;
  EXPECT_FALSE(IsValidMatching(r, 2, 2));  // should match min(2,2)=2
}

// ---------------------------------------------------------------------------
// Oracle race: SolveJv against the scalar solver it replaced
// (reference_jv.h). Optimal cost is not enough here: the serving engine
// starts whichever query the matching picks, so every engine, fleet and
// fig fingerprint depends on SolveJv returning the very same pairs and the
// very same total, bit for bit, including on exact and near ties.
// ---------------------------------------------------------------------------

// Kairos-shaped costs (Eq. 2 + Eq. 8): instance j of type t(j) in {0,1,2}
// is busy for b_j more seconds (a few idle ones give duplicate columns),
// query i serves in s_t(i) seconds, affine in its batch (repeated batches
// give duplicate rows); cost C_t * (b_j + s_t(i)), or C_t * 10 * QoS on ~7%
// of pairs. Inside a type block the unpenalized cost is additive, so almost
// every matching there is a near-tie that rounding decides.
Matrix KairosCost(std::size_t m, std::size_t n, Rng& rng) {
  constexpr double kCoeff[] = {1.0, 0.62, 0.35};
  constexpr double kBaseMs[] = {4.0, 9.0, 15.0};
  constexpr double kPerItemMs[] = {0.02, 0.06, 0.11};
  constexpr double kQosSec = 0.1;
  std::vector<std::size_t> type(n);
  std::vector<double> busy(n);
  for (std::size_t j = 0; j < n; ++j) {
    type[j] = static_cast<std::size_t>(rng.UniformInt(0, 2));
    busy[j] = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.0, 0.05);
  }
  Matrix cost(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto batch = static_cast<double>(25 * rng.UniformInt(1, 40));
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t t = type[j];
      const double l =
          rng.Bernoulli(0.07)
              ? 10.0 * kQosSec
              : busy[j] + (kBaseMs[t] + kPerItemMs[t] * batch) * 1e-3;
      cost(i, j) = kCoeff[t] * l;
    }
  }
  return cost;
}

// Costs that depend only on (row class, column class) with three classes
// each: whole rows and columns repeat and exact ties abound. The value
// table mixes +0.0 and -0.0, which compare equal but are distinct doubles.
Matrix ClassCost(std::size_t m, std::size_t n, Rng& rng) {
  constexpr double kValues[] = {-0.0, 0.0, 0.5, 1.0, 2.0};
  double table[3][3];
  for (auto& row : table) {
    for (double& v : row) v = kValues[rng.UniformInt(0, 4)];
  }
  const auto draw_class = [&rng] {
    return static_cast<std::size_t>(rng.UniformInt(0, 2));
  };
  std::vector<std::size_t> row_class(m), col_class(n);
  for (std::size_t& c : row_class) c = draw_class();
  for (std::size_t& c : col_class) c = draw_class();
  Matrix cost(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cost(i, j) = table[row_class[i]][col_class[j]];
    }
  }
  return cost;
}

Matrix UniformCost(std::size_t m, std::size_t n, Rng& rng) {
  return RandomCost(m, n, rng);
}

Matrix NegativeCost(std::size_t m, std::size_t n, Rng& rng) {
  return RandomCost(m, n, rng, -10.0, 10.0);
}

// Small signed integers (and both zeros): the heaviest tie regime.
Matrix SmallIntCost(std::size_t m, std::size_t n, Rng& rng) {
  Matrix cost(m, n);
  for (double& c : cost.data()) {
    const auto k = rng.UniformInt(-2, 2);
    c = k == 0 && rng.Bernoulli(0.5) ? -0.0 : static_cast<double>(k);
  }
  return cost;
}

Matrix AllEqualCost(std::size_t m, std::size_t n, Rng&) {
  return Matrix(m, n, 3.0);
}

// Magnitudes near DBL_MAX: the dual updates overflow to +-inf and NaN, and
// the result (totals included) must still match bit for bit.
Matrix HugeCost(std::size_t m, std::size_t n, Rng& rng) {
  constexpr double kValues[] = {-1.7e308, -1e308, 0.0, 1.0, 1e308, 1.7e308};
  Matrix cost(m, n);
  for (double& c : cost.data()) c = kValues[rng.UniformInt(0, 5)];
  return cost;
}

::testing::AssertionResult SameAsReference(const Matrix& cost,
                                           JvWorkspace& ws) {
  const AssignmentResult want = reference::ReferenceSolveJv(cost);
  const AssignmentResult& got = SolveJv(cost, ws);
  if (got.col_for_row != want.col_for_row) {
    return ::testing::AssertionFailure() << "col_for_row differs";
  }
  if (std::bit_cast<std::uint64_t>(got.total_cost) !=
      std::bit_cast<std::uint64_t>(want.total_cost)) {
    return ::testing::AssertionFailure()
           << "total_cost " << got.total_cost << " != " << want.total_cost;
  }
  if (got.matched != want.matched) {
    return ::testing::AssertionFailure() << "matched differs";
  }
  return ::testing::AssertionSuccess();
}

struct CostFamily {
  const char* name;
  Matrix (*make)(std::size_t, std::size_t, Rng&);
};

// gtest puts the printed parameter into each test's name. Without this
// it prints the two pointers' bytes, which differ on every run under ASLR.
void PrintTo(const CostFamily& family, std::ostream* os) { *os << family.name; }

class JvOracleRace : public ::testing::TestWithParam<CostFamily> {};

// Every shape from 1x1 to 64x64: m > n takes the transposed path, odd
// widths end in the half-empty lane, 1xN / Mx1 take the argmin shortcut.
// One workspace serves every shape, so it is also reused while shrinking.
TEST_P(JvOracleRace, EveryShapeUpTo64MatchesBitForBit) {
  const CostFamily family = GetParam();
  Rng rng(0xC0FFEE);
  JvWorkspace ws;
  for (std::size_t m = 1; m <= 64; ++m) {
    for (std::size_t n = 1; n <= 64; ++n) {
      const Matrix cost = family.make(m, n, rng);
      ASSERT_TRUE(SameAsReference(cost, ws))
          << family.name << " " << m << "x" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, JvOracleRace,
    ::testing::Values(CostFamily{"Kairos", KairosCost},
                      CostFamily{"Class", ClassCost},
                      CostFamily{"Uniform", UniformCost},
                      CostFamily{"Negative", NegativeCost},
                      CostFamily{"SmallInt", SmallIntCost},
                      CostFamily{"AllEqual", AllEqualCost},
                      CostFamily{"Huge", HugeCost}),
    [](const auto& info) { return std::string(info.param.name); });

// The shapes real serving rounds solve, many draws each: 33 waiting
// queries on 42 instances, a full 64-query window, and its transpose.
TEST(JvOracleRaceTest, KairosRoundShapesMatchBitForBit) {
  Rng rng(2023);
  JvWorkspace ws;
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{33, 42},
                             {64, 42}, {42, 64}, {42, 42}}) {
    for (int rep = 0; rep < 200; ++rep) {
      const Matrix cost = KairosCost(m, n, rng);
      ASSERT_TRUE(SameAsReference(cost, ws))
          << m << "x" << n << " rep " << rep;
    }
  }
}

// With finite costs the search cannot run dry (unmatched columns keep
// v = 0, so a search's first step prices them finitely), so both solvers
// throw only on non-finite input, and both throw invalid_argument there.
TEST(JvOracleRaceTest, ThrowParityOnNonFiniteInput) {
  constexpr double kBad[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  Rng rng(99);
  for (std::size_t m = 1; m <= 5; ++m) {
    for (std::size_t n = 1; n <= 5; ++n) {
      for (double bad : kBad) {
        Matrix cost = RandomCost(m, n, rng);
        cost.data()[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(m * n) - 1))] = bad;
        EXPECT_THROW(reference::ReferenceSolveJv(cost), std::invalid_argument);
        EXPECT_THROW(SolveJv(cost), std::invalid_argument);
      }
    }
  }
}

// After the largest problem, smaller and equal ones reuse every buffer.
TEST(JvWorkspaceTest, StopsAllocatingAtHighWaterSize) {
  Rng rng(5);
  JvWorkspace ws;
  SolveJv(KairosCost(64, 42, rng), ws);
  SolveJv(KairosCost(42, 64, rng), ws);
  const auto buffers = [&ws] {
    return std::vector<const void*>{
        ws.u.data(),         ws.v.data(),         ws.col4row.data(),
        ws.row4col.data(),   ws.spc.data(),       ws.path.data(),
        ws.list_col.data(),  ws.list_v.data(),    ws.list_spc.data(),
        ws.list_path.data(), ws.list_free.data(), ws.visited_rows.data(),
        ws.visited_cols.data(), ws.transposed.data(),
        ws.result.col_for_row.data()};
  };
  const std::vector<const void*> before = buffers();
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{33, 42},
                             {64, 42}, {5, 7}, {42, 64}, {1, 42}}) {
    SolveJv(KairosCost(m, n, rng), ws);
    EXPECT_EQ(buffers(), before) << m << "x" << n;
  }
}


}  // namespace
}  // namespace kairos::assign
