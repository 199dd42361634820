// Tests for exact rational arithmetic and the exact tableau simplex, plus
// the certification of the floating-point revised simplex against it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "lp/exact_simplex.hpp"
#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

// ---------------------------------------------------------------- rational --

TEST(Rational, NormalizationAndSigns) {
  EXPECT_EQ(Rational(6, 4), Rational(3, 2));
  EXPECT_EQ(Rational(-6, 4), Rational(-3, 2));
  EXPECT_EQ(Rational(6, -4), Rational(-3, 2));
  EXPECT_EQ(Rational(-6, -4), Rational(3, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_THROW(Rational(1, 0), Error);
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
  EXPECT_THROW(a / Rational(0), Error);
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(1, 2).sign(), 1);
  EXPECT_EQ(Rational(-7).sign(), -1);
  EXPECT_TRUE(Rational(0).is_zero());
}

TEST(Rational, CrossReductionAvoidsOverflow) {
  // (2^40 / 3) * (3 / 2^40) = 1 -- naive multiplication would overflow 64
  // bits in the numerator times denominator.
  const Rational big(std::int64_t(1) << 40, 3);
  const Rational small(3, std::int64_t(1) << 40);
  EXPECT_EQ(big * small, Rational(1));
}

TEST(Rational, OverflowIsDetected) {
  const Rational huge(INT64_MAX, 1);
  EXPECT_THROW(huge + huge, Error);
  EXPECT_THROW(huge * Rational(2), Error);
}

TEST(Rational, Int64MinIsOutsideTheRange) {
  // Negating INT64_MIN is signed overflow; the range stops at -INT64_MAX
  // so every negation (sign flips, unary minus, division by a negative
  // value) stays defined.
  EXPECT_THROW(Rational(INT64_MIN, -1), Error);
  EXPECT_THROW(-Rational(INT64_MIN), Error);
  EXPECT_THROW(Rational(1) / Rational(INT64_MIN), Error);
  EXPECT_THROW(Rational(-INT64_MAX) - Rational(1), Error);
  EXPECT_EQ(-Rational(-INT64_MAX), Rational(INT64_MAX));
  EXPECT_EQ(Rational(1) / Rational(-INT64_MAX), Rational(-1, INT64_MAX));
}

TEST(Rational, FromDoubleIsExact) {
  EXPECT_EQ(Rational::from_double(0.0), Rational(0));
  EXPECT_EQ(Rational::from_double(0.375), Rational(3, 8));
  EXPECT_EQ(Rational::from_double(-2.5), Rational(-5, 2));
  EXPECT_EQ(Rational::from_double(1e15), Rational(1000000000000000));
  // 0.1 is not 1/10 but the dyadic rational nearest to it.
  const Rational tenth = Rational::from_double(0.1);
  EXPECT_NE(tenth, Rational(1, 10));
  EXPECT_EQ(tenth.den(), std::int64_t{1} << 55);
  EXPECT_EQ(tenth.to_double(), 0.1);
  EXPECT_THROW(Rational::from_double(std::nan("")), Error);
  EXPECT_THROW(Rational::from_double(HUGE_VAL), Error);
  EXPECT_THROW(Rational::from_double(1e300), Error);
  EXPECT_THROW(Rational::from_double(1e-300), Error);
}

TEST(Rational, Streaming) {
  std::ostringstream os;
  os << Rational(3, 4) << ' ' << Rational(5);
  EXPECT_EQ(os.str(), "3/4 5");
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

// ----------------------------------------------------------- exact simplex --

/// Exact optimality certificate of an optimal ExactSolution: primal
/// feasibility, dual signs in LpSolution's convention, dual feasibility and
/// strong duality, all without rounding.
void expect_exact_certificate(const LpProblem& lp, const ExactSolution& s) {
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  const Rational sense(lp.objective() == Objective::kMaximize ? 1 : -1);
  std::vector<Rational> reduced(lp.num_variables());
  Rational objective(0);
  for (std::size_t j = 0; j < lp.num_variables(); ++j) {
    EXPECT_GE(s.x[j], Rational(0)) << "col " << j;
    reduced[j] = Rational::from_double(lp.objective_coeff(j));
    objective += reduced[j] * s.x[j];
  }
  EXPECT_EQ(objective, s.objective);
  Rational dual_objective(0);
  for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
    const LpProblem::Row& row = lp.row(i);
    Rational lhs(0);
    for (const LpTerm& t : row.terms) {
      const Rational a = Rational::from_double(t.coeff);
      lhs += a * s.x[t.var];
      reduced[t.var] -= s.duals[i] * a;
    }
    const Rational b = Rational::from_double(row.rhs);
    dual_objective += s.duals[i] * b;
    switch (row.sense) {
      case RowSense::kLessEqual:
        EXPECT_LE(lhs, b) << "row " << i;
        EXPECT_GE(sense * s.duals[i], Rational(0)) << "row " << i;
        break;
      case RowSense::kGreaterEqual:
        EXPECT_GE(lhs, b) << "row " << i;
        EXPECT_LE(sense * s.duals[i], Rational(0)) << "row " << i;
        break;
      case RowSense::kEqual:
        EXPECT_EQ(lhs, b) << "row " << i;
        break;
    }
  }
  EXPECT_EQ(dual_objective, s.objective);
  for (std::size_t j = 0; j < lp.num_variables(); ++j) {
    EXPECT_LE(sense * reduced[j], Rational(0)) << "col " << j;
  }
}

TEST(ExactSimplex, TextbookProblemExactOptimum) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> exactly 36.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(5.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(36));
  EXPECT_EQ(s.x[0], Rational(2));
  EXPECT_EQ(s.x[1], Rational(6));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, FractionalOptimumIsExact) {
  // max x + y s.t. 3x + y <= 2, x + 3y <= 2  ->  x = y = 1/2, objective 1.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 3.0}, {y, 1.0}}, RowSense::kLessEqual, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, RowSense::kLessEqual, 2.0);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(1));
  EXPECT_EQ(s.x[0], Rational(1, 2));
  EXPECT_EQ(s.x[1], Rational(1, 2));
  EXPECT_EQ(s.duals[0], Rational(1, 4));
  EXPECT_EQ(s.duals[1], Rational(1, 4));
}

TEST(ExactSimplex, DetectsUnboundedness) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, -1.0}}, RowSense::kLessEqual, 1.0);
  EXPECT_EQ(solve_exact_lp(lp).status, ExactStatus::kUnbounded);
}

TEST(ExactSimplex, DegenerateProblemTerminates) {
  // Many constraints active at the origin; Bland's rule must terminate.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  for (int k = 1; k <= 8; ++k) {
    lp.add_constraint({{x, static_cast<double>(k)}, {y, 1.0}}, RowSense::kLessEqual, 0.0);
  }
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(0));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, EqualityRowOptimumAndDuals) {
  // max 3x + 2y s.t. 2x + 2y = 7, x <= 5/2  ->  x = 5/2, y = 1, value 19/2;
  // the duals (1, 1) solve y^T A_B = c_B over the basis {x, y}.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 7.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 2.5);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(19, 2));
  EXPECT_EQ(s.x[0], Rational(5, 2));
  EXPECT_EQ(s.x[1], Rational(1));
  EXPECT_EQ(s.duals[0], Rational(1));
  EXPECT_EQ(s.duals[1], Rational(1));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, GreaterEqualRowInAMinimization) {
  // min 2x + 3y s.t. x + y >= 3, x <= 2  ->  x = 2, y = 1, value 7.  In a
  // minimization the >= row prices non-negative, the <= row non-positive.
  LpProblem lp(Objective::kMinimize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 3.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 2.0);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(7));
  EXPECT_EQ(s.x[0], Rational(2));
  EXPECT_EQ(s.x[1], Rational(1));
  EXPECT_EQ(s.duals[0], Rational(3));
  EXPECT_EQ(s.duals[1], Rational(-1));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, NegativeRightHandSide) {
  // max 2x + y s.t. x - y <= -1, x + y <= 5  ->  x = 2, y = 3, value 7,
  // duals (1/2, 3/2): the negated row's dual maps back to the stated row.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, -1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 5.0);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(7));
  EXPECT_EQ(s.x[0], Rational(2));
  EXPECT_EQ(s.x[1], Rational(3));
  EXPECT_EQ(s.duals[0], Rational(1, 2));
  EXPECT_EQ(s.duals[1], Rational(3, 2));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, DetectsInfeasibility) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_exact_lp(lp).status, ExactStatus::kInfeasible);

  LpProblem pinned(Objective::kMinimize);
  const auto z = pinned.add_variable(1.0);
  pinned.add_constraint({{z, 1.0}}, RowSense::kEqual, 3.0);
  pinned.add_constraint({{z, 1.0}}, RowSense::kLessEqual, 2.0);
  EXPECT_EQ(solve_exact_lp(pinned).status, ExactStatus::kInfeasible);
}

TEST(ExactSimplex, RedundantEqualityPair) {
  // max 3x + y s.t. x + y = 2, 2x + 2y = 4, x <= 3/2  ->  x = 3/2, y = 1/2,
  // value 5.  The second equality is redundant: its artificial stays basic
  // at zero and the duals split between the pair, still certifying.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 2.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 4.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.5);
  const auto s = solve_exact_lp(lp);
  ASSERT_EQ(s.status, ExactStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(5));
  EXPECT_EQ(s.x[0], Rational(3, 2));
  EXPECT_EQ(s.x[1], Rational(1, 2));
  EXPECT_EQ(s.duals[2], Rational(2));
  expect_exact_certificate(lp, s);
}

TEST(ExactSimplex, DualsMatchTheFloatingPointEngine) {
  // On non-degenerate optima the duals are unique, so the float engine's
  // LpSolution::duals must reproduce the exact ones sign for sign.
  LpProblem lp(Objective::kMinimize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 3.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 2.0);
  lp.add_constraint({{x, -1.0}, {y, -1.0}}, RowSense::kGreaterEqual, -8.0);
  const auto exact = solve_exact_lp(lp);
  const auto approx = solve_lp(lp);
  ASSERT_EQ(exact.status, ExactStatus::kOptimal);
  ASSERT_EQ(approx.status, LpStatus::kOptimal);
  for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
    EXPECT_NEAR(approx.duals[i], exact.duals[i].to_double(), 1e-9) << "row " << i;
  }
}

TEST(ExactSimplex, RejectsMalformedInput) {
  LpProblem ragged(Objective::kMaximize);
  ragged.add_variable(1.0);
  EXPECT_THROW(ragged.add_constraint({{1, 2.0}}, RowSense::kLessEqual, 1.0), Error);

  // Coefficients a 64-bit rational cannot hold exactly.
  for (const double bad : {std::nan(""), HUGE_VAL, 1e300, 1e-300}) {
    LpProblem objective(Objective::kMaximize);
    const auto x = objective.add_variable(bad);
    objective.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
    EXPECT_THROW(solve_exact_lp(objective), Error) << bad;
    LpProblem coefficient(Objective::kMaximize);
    const auto z = coefficient.add_variable(1.0);
    coefficient.add_constraint({{z, bad}}, RowSense::kLessEqual, 1.0);
    EXPECT_THROW(solve_exact_lp(coefficient), Error) << bad;
  }
}

// ----------------------------------- certify the floating-point simplex ----

TEST(ExactSimplex, PropertyCertifiesDoubleSimplex) {
  // Random integer-coefficient programs: the double revised simplex must
  // match the exact rational optimum to floating-point accuracy.
  Rng rng(0xEAC7);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t vars = 2 + rng.index(4);
    const std::size_t rows = 2 + rng.index(5);
    LpProblem lp(Objective::kMaximize);
    for (std::size_t j = 0; j < vars; ++j) {
      lp.add_variable(static_cast<double>(rng.uniform_int(0, 9)));
    }
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (std::size_t j = 0; j < vars; ++j) {
        const auto aij = rng.uniform_int(0, 6);
        if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
      }
      lp.add_constraint(terms, RowSense::kLessEqual, static_cast<double>(rng.uniform_int(1, 20)));
    }
    const auto exact_solution = solve_exact_lp(lp);
    const auto approx_solution = solve_lp(lp);
    if (exact_solution.status == ExactStatus::kUnbounded) {
      EXPECT_EQ(approx_solution.status, LpStatus::kUnbounded) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(approx_solution.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(approx_solution.objective, exact_solution.objective.to_double(), 1e-7)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace bt
