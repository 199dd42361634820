// Tests for the LP substrate: model building and the two-phase revised
// simplex, including property tests against a brute-force vertex enumerator
// on random small programs.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/lp_problem.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

// -------------------------------------------------------------- lp problem --

TEST(LpProblem, MergesDuplicateTerms) {
  LpProblem lp;
  const auto x = lp.add_variable(1.0, "x");
  lp.add_constraint({{x, 1.0}, {x, 2.0}}, RowSense::kLessEqual, 6.0);
  ASSERT_EQ(lp.row(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(lp.row(0).terms[0].coeff, 3.0);
}

TEST(LpProblem, ViolationMeasure) {
  LpProblem lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 0.25);
  lp.add_constraint({{y, 1.0}}, RowSense::kEqual, 0.5);
  EXPECT_DOUBLE_EQ(lp.max_violation({0.25, 0.5}), 0.0);
  EXPECT_NEAR(lp.max_violation({2.0, 0.5}), 1.5, 1e-12);  // first row violated
  EXPECT_NEAR(lp.max_violation({0.25, 0.75}), 0.25, 1e-12);
}

TEST(LpProblem, RejectsUnknownVariable) {
  LpProblem lp;
  lp.add_variable(1.0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, RowSense::kEqual, 0.0), Error);
}

// ----------------------------------------------------------------- simplex --

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  x=2, y=6, obj=36.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0, "x");
  const auto y = lp.add_variable(5.0, "y");
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  ->  x=7, y=3, obj=23.
  LpProblem lp(Objective::kMinimize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 10.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  lp.add_constraint({{y, 1.0}}, RowSense::kGreaterEqual, 3.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 23.0, 1e-8);
  EXPECT_NEAR(s.x[x], 7.0, 1e-8);
  EXPECT_NEAR(s.x[y], 3.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // max x + y s.t. x + y = 5, x - y = 1  ->  x=3, y=2.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 5.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 1.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(0.0);
  lp.add_constraint({{y, 1.0}}, RowSense::kLessEqual, 1.0);  // x unconstrained
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
  (void)x;
}

TEST(Simplex, NegativeRhsNormalization) {
  // max -x s.t. -x <= -3  (i.e. x >= 3)  ->  x=3, obj=-3.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(-1.0);
  lp.add_constraint({{x, -1.0}}, RowSense::kLessEqual, -3.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
  EXPECT_NEAR(s.objective, -3.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRowsAreDropped) {
  // x + y = 2 stated twice plus its double: rank-deficient but feasible.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 2.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 4.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);  // y=2, x=0
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: many constraints active at the optimum.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  for (int k = 1; k <= 10; ++k) {
    lp.add_constraint({{x, static_cast<double>(k)}, {y, 1.0}}, RowSense::kLessEqual, 0.0);
  }
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(Simplex, DualsSatisfyStrongDuality) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(5.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  double dual_objective = 0.0;
  for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
    dual_objective += s.duals[i] * lp.row(i).rhs;
    EXPECT_GE(s.duals[i], -1e-9);  // max problem, <= rows: duals >= 0
  }
  EXPECT_NEAR(dual_objective, s.objective, 1e-7);
}

TEST(Simplex, SolutionIsPrimalFeasible) {
  LpProblem lp(Objective::kMaximize);
  const auto a = lp.add_variable(1.0);
  const auto b = lp.add_variable(4.0);
  const auto c = lp.add_variable(2.0);
  lp.add_constraint({{a, 2.0}, {b, 1.0}, {c, 1.0}}, RowSense::kLessEqual, 14.0);
  lp.add_constraint({{a, 4.0}, {b, 2.0}, {c, 3.0}}, RowSense::kLessEqual, 28.0);
  lp.add_constraint({{a, 2.0}, {b, 5.0}, {c, 5.0}}, RowSense::kLessEqual, 30.0);
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LE(lp.max_violation(s.x), 1e-7);
}

TEST(Simplex, NoConstraintsEdgeCases) {
  LpProblem bounded(Objective::kMaximize);
  bounded.add_variable(-1.0);
  EXPECT_EQ(solve_lp(bounded).status, LpStatus::kOptimal);

  LpProblem unbounded(Objective::kMaximize);
  unbounded.add_variable(1.0);
  EXPECT_EQ(solve_lp(unbounded).status, LpStatus::kUnbounded);

  LpProblem empty;
  EXPECT_THROW(solve_lp(empty), Error);
}

// ------------------------------------------------- brute-force cross-check --

/// Enumerate all basic solutions of {A x <= b, x >= 0} (2 variables) by
/// intersecting constraint pairs, and return the best feasible objective.
double brute_force_2d(const LpProblem& lp) {
  // Gather rows as a x + b y <= c (including x >= 0, y >= 0 as -x <= 0 ...).
  struct Line {
    double a, b, c;
  };
  std::vector<Line> lines;
  for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
    const auto& row = lp.row(i);
    double a = 0.0, b = 0.0;
    for (const auto& t : row.terms) (t.var == 0 ? a : b) = t.coeff;
    lines.push_back({a, b, row.rhs});
  }
  lines.push_back({-1.0, 0.0, 0.0});
  lines.push_back({0.0, -1.0, 0.0});

  double best = -1e300;
  auto consider = [&](double x, double y) {
    for (const Line& l : lines) {
      if (l.a * x + l.b * y > l.c + 1e-7) return;
    }
    best = std::max(best, lp.objective_coeff(0) * x + lp.objective_coeff(1) * y);
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-12) continue;
      const double x = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      const double y = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      consider(x, y);
    }
  }
  return best;
}

TEST(Simplex, PropertyMatchesBruteForceOn2dPrograms) {
  Rng rng(4242);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LpProblem lp(Objective::kMaximize);
    lp.add_variable(rng.uniform_real(-2.0, 5.0));
    lp.add_variable(rng.uniform_real(-2.0, 5.0));
    const int rows = 2 + static_cast<int>(rng.index(5));
    for (int i = 0; i < rows; ++i) {
      lp.add_constraint({{0, rng.uniform_real(-1.0, 3.0)}, {1, rng.uniform_real(-1.0, 3.0)}},
                        RowSense::kLessEqual, rng.uniform_real(0.5, 10.0));
    }
    const LpSolution s = solve_lp(lp);
    if (s.status != LpStatus::kOptimal) continue;  // unbounded cases skipped
    const double reference = brute_force_2d(lp);
    EXPECT_NEAR(s.objective, reference, 1e-5) << "trial " << trial;
    EXPECT_LE(lp.max_violation(s.x), 1e-6);
    ++solved;
  }
  EXPECT_GT(solved, 100);  // most random programs are bounded & feasible
}

TEST(Simplex, StatusToString) {
  EXPECT_EQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace bt
