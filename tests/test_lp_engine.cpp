// Tests for the sparse LU simplex engine (basis_lu.hpp + simplex.cpp):
// randomized cross-validation against the exact rational simplex, a
// degenerate/cycling regression that exercises the Forrest-Tomlin update +
// refactorization path, and the incremental (append-column) API used by
// the column-generation master.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/exact_simplex.hpp"
#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

/// Random integer-coefficient maximization program with <= rows and
/// non-negative rhs.
LpProblem random_lp(Rng& rng, std::size_t min_vars = 2, std::size_t max_extra = 6) {
  LpProblem lp(Objective::kMaximize);
  const std::size_t vars = min_vars + rng.index(max_extra);
  const std::size_t rows = 2 + rng.index(max_extra);
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
  return lp;
}

// ------------------------------------------- exact-rational cross-check ----

TEST(SparseEngine, PropertyMatchesExactSimplexObjectiveAndDuals) {
  Rng rng(0x5EED);
  int optimal = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const LpProblem lp = random_lp(rng);
    const auto exact = solve_exact_lp(lp);
    const auto s = solve_lp(lp);
    if (exact.status == ExactStatus::kUnbounded) {
      EXPECT_EQ(s.status, LpStatus::kUnbounded) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7) << "trial " << trial;
    EXPECT_LE(lp.max_violation(s.x), 1e-7) << "trial " << trial;
    // Strong duality: b^T y = c^T x, with y >= 0 on <= rows of a max program.
    double dual_objective = 0.0;
    for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
      EXPECT_GE(s.duals[i], -1e-7) << "trial " << trial << " row " << i;
      dual_objective += s.duals[i] * lp.row(i).rhs;
    }
    EXPECT_NEAR(dual_objective, s.objective, 1e-6) << "trial " << trial;
    ++optimal;
  }
  EXPECT_GT(optimal, 40);
}

TEST(SparseEngine, AgreesWithExactSimplexOnMixedSenseRows) {
  // >= and = rows force the phase-1 + artificial-purge path through the
  // factorization (including redundant-row drops).  Objective coefficients
  // are multiples of 1/8 in [0.5, 4), so the program is exact in doubles.
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem lp(Objective::kMinimize);
    const std::size_t vars = 2 + rng.index(4);
    for (std::size_t j = 0; j < vars; ++j) {
      lp.add_variable(static_cast<double>(rng.uniform_int(4, 31)) / 8.0);
    }
    const std::size_t rows = 2 + rng.index(4);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (std::size_t j = 0; j < vars; ++j) {
        const auto aij = rng.uniform_int(0, 3);
        if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
      }
      const RowSense sense = i % 3 == 0   ? RowSense::kGreaterEqual
                             : i % 3 == 1 ? RowSense::kLessEqual
                                          : RowSense::kEqual;
      lp.add_constraint(terms, sense, static_cast<double>(rng.uniform_int(0, 8)));
    }
    const ExactSolution exact = solve_exact_lp(lp);
    const LpSolution sparse = solve_lp(lp);
    if (exact.status == ExactStatus::kInfeasible) {
      EXPECT_EQ(sparse.status, LpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(exact.status, ExactStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(sparse.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(sparse.objective, exact.objective.to_double(), 1e-6) << "trial " << trial;
  }
}

// ------------------------------- Forrest-Tomlin update / refactorization -----

TEST(SparseEngine, RefactorPeriodDoesNotChangeTheOptimum) {
  // The same degenerate program solved with refactorization after every
  // pivot, every third pivot, and on the default period must agree: the
  // Forrest-Tomlin updated factors and a fresh LU are interchangeable
  // representations.
  Rng rng(0xE7A);
  for (int trial = 0; trial < 25; ++trial) {
    const LpProblem lp = random_lp(rng, 4, 5);
    const auto exact = solve_exact_lp(lp);
    if (exact.status != ExactStatus::kOptimal) continue;
    for (const std::size_t period : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      SimplexOptions options;
      options.refactor_period = period;
      const LpSolution s = solve_lp(lp, options);
      ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial << " period " << period;
      EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial << " period " << period;
    }
  }
}

TEST(SparseEngine, DegenerateCyclingRegression) {
  // Classic degeneracy: many constraints active at the origin.  The engine
  // must terminate (Bland fallback) and find the exact optimum while its
  // pivots run through the Forrest-Tomlin update path.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  const auto z = lp.add_variable(1.0);
  for (int k = 1; k <= 12; ++k) {
    lp.add_constraint({{x, static_cast<double>(k)}, {y, 1.0}, {z, 0.5 * k}},
                      RowSense::kLessEqual, 0.0);
  }
  lp.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, RowSense::kLessEqual, 1.0);
  SimplexOptions options;
  options.refactor_period = 2;  // force the refactor path under degeneracy
  const LpSolution s = solve_lp(lp, options);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);  // y enters only at 0: all rows bind
}

// ------------------------------------------------- incremental simplex -----

TEST(IncrementalSimplex, MatchesRebuildAfterEachAppendedColumn) {
  // Column-generation pattern: fixed <= rows, one column appended per round.
  // After every append, the incremental re-solve must match a from-scratch
  // solve of the equivalent full problem (objective and duals).
  Rng rng(0x17C5);
  const std::size_t rows = 6;
  std::vector<double> rhs(rows);
  for (std::size_t i = 0; i < rows; ++i) rhs[i] = rng.uniform_real(1.0, 5.0);

  auto random_column = [&]() {
    std::vector<LpTerm> terms;
    for (std::size_t i = 0; i < rows; ++i) {
      if (rng.bernoulli(0.6)) terms.push_back({i, rng.uniform_real(0.1, 2.0)});
    }
    return terms;
  };

  std::vector<std::vector<LpTerm>> columns{random_column()};
  std::vector<double> objective{rng.uniform_real(0.5, 2.0)};

  auto build_full = [&]() {
    LpProblem lp(Objective::kMaximize);
    for (double c : objective) lp.add_variable(c);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<LpTerm> row_terms;  // transpose the column list
      for (std::size_t j = 0; j < columns.size(); ++j) {
        for (const LpTerm& t : columns[j]) {
          if (t.var == i) row_terms.push_back({j, t.coeff});
        }
      }
      lp.add_constraint(row_terms, RowSense::kLessEqual, rhs[i]);
    }
    return lp;
  };

  LpProblem initial = build_full();
  IncrementalSimplex engine(initial);
  for (int round = 0; round < 12; ++round) {
    const LpSolution incremental = engine.solve();
    ASSERT_EQ(incremental.status, LpStatus::kOptimal) << "round " << round;
    const LpSolution reference = solve_lp(build_full());
    ASSERT_EQ(reference.status, LpStatus::kOptimal) << "round " << round;
    EXPECT_NEAR(incremental.objective, reference.objective, 1e-7) << "round " << round;
    ASSERT_EQ(incremental.x.size(), columns.size()) << "round " << round;
    // Duals of both solves price every column to within tolerance: reduced
    // costs of an optimal dual vector are <= 0 for a max program.
    for (std::size_t j = 0; j < columns.size(); ++j) {
      double reduced = objective[j];
      for (const LpTerm& t : columns[j]) reduced -= incremental.duals[t.var] * t.coeff;
      EXPECT_LE(reduced, 1e-6) << "round " << round << " column " << j;
    }
    columns.push_back(random_column());
    objective.push_back(rng.uniform_real(0.5, 2.0));
    engine.add_column(objective.back(), columns.back());
    EXPECT_EQ(engine.num_variables(), columns.size());
  }
}

TEST(IncrementalSimplex, RepeatedSolveIsIdempotent) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  const LpSolution first = engine.solve();
  const LpSolution second = engine.solve();
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_EQ(second.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(first.objective, second.objective);
  EXPECT_LE(second.iterations, 1u);  // nothing to do from an optimal basis
}

TEST(IncrementalSimplex, AddColumnMergesDuplicateRowTerms) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 6.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  // {row 0: 1.0} + {row 0: 2.0} must act as a single coefficient 3.0.
  engine.add_column(9.0, {{0, 1.0}, {0, 2.0}});
  const LpSolution s = engine.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 18.0, 1e-9);  // new column: 6/3 * 9 = 18 beats 6
}

TEST(IncrementalSimplex, InfeasibleModelStaysInfeasibleUntilAColumnFixesIt) {
  // x >= 2 and x <= 1 is infeasible.  Re-solving must not skip phase 1 and
  // "succeed" with artificials still basic; appending a column that makes
  // the model feasible must then solve for real.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  IncrementalSimplex engine(lp);
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);
  engine.add_column(-0.5, {{0, 1.0}});  // row 0 becomes x + y >= 2
  const LpSolution fixed = engine.solve();
  ASSERT_EQ(fixed.status, LpStatus::kOptimal);
  EXPECT_NEAR(fixed.objective, 0.5, 1e-9);  // x = 1, y = 1
}

// ------------------------------------------- dual simplex / row appends ----

TEST(IncrementalSimplex, AppendRowReoptimizesWithDualPivots) {
  // max 3x + 2y, x + y <= 4, x <= 3: optimum (3, 1) -> 11.  Appending
  // y <= 1 keeps it; appending x + 2y <= 3 cuts it to (3, 0) -> 9.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 4.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);

  engine.append_row({{y, 1.0}}, RowSense::kLessEqual, 1.0);
  LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 11.0, 1e-9);
  EXPECT_EQ(engine.num_rows(), 3u);

  engine.append_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 3.0);
  s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
  ASSERT_EQ(s.duals.size(), 4u);  // appended rows price like built rows
  double dual_objective = 4.0 * s.duals[0] + 3.0 * s.duals[1] + 1.0 * s.duals[2] +
                          3.0 * s.duals[3];
  EXPECT_NEAR(dual_objective, s.objective, 1e-8);
}

TEST(IncrementalSimplex, AppendRowMergesDuplicateTermsEvenThroughZero) {
  // {x: 1} + {x: -1} + {x: 2} must act as a single coefficient 2, even
  // though the running sum passes through exactly zero (regression: the
  // accumulator once emitted such a variable twice, doubling it to 4).
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 10.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  engine.append_row({{x, 1.0}, {x, -1.0}, {x, 2.0}}, RowSense::kLessEqual, 4.0);
  const LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);  // 2x <= 4, not 4x <= 4
}

TEST(IncrementalSimplex, AppendRowCanMakeTheModelInfeasible) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  engine.append_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);  // x >= 5 vs x <= 4
  EXPECT_EQ(engine.reoptimize_dual().status, LpStatus::kInfeasible);
}

TEST(IncrementalSimplex, SetRowRhsRangesWithTheDualSimplex) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 10.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 6.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);  // (6, 4) -> 16
  engine.set_row_rhs(1, 2.0);                            // tighten x <= 2
  LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);  // (2, 8)
  engine.set_row_rhs(1, 6.0);            // relax back
  s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-9);
}

TEST(IncrementalSimplex, SetRowRhsBeforeFirstSolveIsHonored) {
  // Regression: a pre-solve rhs change to a negative value leaves the
  // row's slack basic at a negative level, which phase 1 cannot see; the
  // first solve must still run the dual repair and report infeasibility.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  engine.set_row_rhs(0, -2.0);  // x <= -2 with x >= 0: infeasible
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);

  IncrementalSimplex relaxed(lp);
  relaxed.set_row_rhs(0, 9.0);
  const LpSolution s = relaxed.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);

  // Rows without a slack (here: built from a flipped negative-rhs row, so
  // phase 1 sees a basic artificial) reject a pre-solve sign change; after
  // the first solve the same change goes through the dual repair.
  LpProblem flipped(Objective::kMinimize);
  const auto z = flipped.add_variable(1.0);
  flipped.add_constraint({{z, -2.0}}, RowSense::kLessEqual, -2.0);  // z >= 1
  IncrementalSimplex guarded(flipped);
  EXPECT_THROW(guarded.set_row_rhs(0, 4.0), Error);  // internal rhs would flip sign
  ASSERT_EQ(guarded.solve().status, LpStatus::kOptimal);
  guarded.set_row_rhs(0, -4.0);  // z >= 2 now; fine post-solve
  const LpSolution tightened = guarded.reoptimize_dual();
  ASSERT_EQ(tightened.status, LpStatus::kOptimal);
  EXPECT_NEAR(tightened.objective, 2.0, 1e-9);
}

// ------------------------------------ Devex / steepest-edge pricing (PR 5) --

TEST(SparseEngine, DevexWeightResetsAreCorrectAcrossRefactorPeriods) {
  // The Devex reference framework persists across re-solves and is reset by
  // the drift safeguards (overflow, Bland exits, structure changes); a
  // refactorization itself must not change where the solve lands.  Solving
  // the same programs with refactorization after every pivot, every other
  // pivot, and on the default period must agree with the exact optimum --
  // under both pricing rules and both dual row selections.
  Rng rng(0xDE5E);
  for (int trial = 0; trial < 30; ++trial) {
    const LpProblem lp = random_lp(rng, 4, 5);
    const auto exact = solve_exact_lp(lp);
    if (exact.status != ExactStatus::kOptimal) continue;
    for (const std::size_t period : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
      SimplexOptions options;
      options.pricing = PricingRule::kDevex;
      options.dual_row_rule = DualRowRule::kSteepestEdge;
      options.refactor_period = period;
      const LpSolution s = solve_lp(lp, options);
      ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial << " period " << period;
      EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial << " period " << period;
    }
  }
}

TEST(IncrementalSimplex, DevexWeightsSurviveRefactorizationDuringRowRanging) {
  // Standing-master usage under the production pricing: appended rows and
  // rhs ranging interleave dual and primal pivots across many
  // refactorizations (period 1 = refactor on every pivot); the weighted
  // frameworks must keep landing on the same optimum as the default-period
  // engine.
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t vars = 3 + rng.index(4);
    const std::size_t nrows = 3 + rng.index(3);
    LpProblem lp(Objective::kMaximize);
    std::vector<double> c(vars);
    for (std::size_t j = 0; j < vars; ++j) {
      c[j] = rng.uniform_int(1, 9);
      lp.add_variable(c[j]);
    }
    std::vector<std::vector<LpTerm>> rows(nrows);
    std::vector<double> rhs(nrows);
    for (std::size_t i = 0; i < nrows; ++i) {
      for (std::size_t j = 0; j < vars; ++j) {
        const int aij = rng.uniform_int(0, 5);
        if (aij != 0) rows[i].push_back({j, static_cast<double>(aij)});
      }
      rhs[i] = rng.uniform_int(1, 12);
      lp.add_constraint(rows[i], RowSense::kLessEqual, rhs[i]);
    }
    SimplexOptions every_pivot;
    every_pivot.pricing = PricingRule::kDevex;
    every_pivot.dual_row_rule = DualRowRule::kSteepestEdge;
    every_pivot.refactor_period = 1;
    IncrementalSimplex frequent(lp, every_pivot);
    IncrementalSimplex standard(lp);
    if (frequent.solve().status != LpStatus::kOptimal) continue;
    ASSERT_EQ(standard.solve().status, LpStatus::kOptimal) << "trial " << trial;
    for (int change = 0; change < 5; ++change) {
      const std::size_t row = rng.index(nrows);
      const double new_rhs = rng.uniform_int(0, 12);
      frequent.set_row_rhs(row, new_rhs);
      standard.set_row_rhs(row, new_rhs);
      const LpSolution a = frequent.reoptimize_dual();
      const LpSolution b = standard.reoptimize_dual();
      ASSERT_EQ(a.status, b.status) << "trial " << trial << " change " << change;
      if (a.status == LpStatus::kOptimal) {
        EXPECT_NEAR(a.objective, b.objective, 1e-7) << "trial " << trial << " change " << change;
      }
    }
  }
}

// ------------------------------------------- reach-set FTRAN/BTRAN (PR 5) --

namespace reach_test {

/// Owning sparse column set with view access for BasisLu::factorize.
struct Columns {
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<std::vector<double>> vals;

  void add(std::vector<std::uint32_t> r, std::vector<double> v) {
    rows.push_back(std::move(r));
    vals.push_back(std::move(v));
  }
  std::vector<SparseColumnView> views() const {
    std::vector<SparseColumnView> out(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      out[k] = SparseColumnView{rows[k].data(), vals[k].data(), rows[k].size()};
    }
    return out;
  }
};

/// Unit-vector FTRAN/BTRAN through `lu` as a sparse solve, returning the
/// number of elimination steps it visited (its reach, or m when it fell
/// back to the full sweep) via the stats delta.
std::uint64_t probe_steps(BasisLu& lu, std::size_t m, std::size_t position, bool do_btran,
                          ScatteredVector& x) {
  x.reset(m);
  x.push(static_cast<std::uint32_t>(position), 1.0);
  const LpEngineStats before = lu.stats();
  if (do_btran) {
    lu.btran(x, BasisLu::SolveHint::kSparse);
    return lu.stats().btran_reach_steps - before.btran_reach_steps;
  }
  lu.ftran(x, BasisLu::SolveHint::kSparse);
  return lu.stats().ftran_reach_steps - before.ftran_reach_steps;
}

}  // namespace reach_test

TEST(BasisLuReach, IdentityBasisSolvesTouchOneStep) {
  using reach_test::Columns;
  const std::size_t m = 32;
  Columns cols;
  for (std::size_t k = 0; k < m; ++k) cols.add({static_cast<std::uint32_t>(k)}, {2.0});
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, cols.views()));
  ScatteredVector x;
  for (const std::size_t pos : {std::size_t{0}, std::size_t{7}, std::size_t{31}}) {
    EXPECT_EQ(reach_test::probe_steps(lu, m, pos, /*do_btran=*/false, x), 1u) << pos;
    EXPECT_DOUBLE_EQ(x.value[pos], 0.5);
    ASSERT_EQ(x.nonzero.size(), 1u);
    EXPECT_EQ(reach_test::probe_steps(lu, m, pos, /*do_btran=*/true, x), 1u) << pos;
    EXPECT_DOUBLE_EQ(x.value[pos], 0.5);
  }
}

TEST(BasisLuReach, BlockDiagonalBasisConfinesTheReachToOneBlock) {
  // Two decoupled lower-bidiagonal blocks: a right-hand side supported in
  // one block must never visit elimination steps of the other, and a unit
  // rhs at a block's *last* position reaches exactly one step.
  using reach_test::Columns;
  const std::size_t block = 6;
  const std::size_t m = 2 * block;
  Columns cols;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t k = 0; k < block; ++k) {
      const std::uint32_t col = static_cast<std::uint32_t>(b * block + k);
      if (k + 1 < block) {
        cols.add({col, col + 1}, {1.0, -0.5});
      } else {
        cols.add({col}, {1.0});
      }
    }
  }
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, cols.views()));
  ScatteredVector x;

  // Head of block 0: the full chain of that block (and only it).
  EXPECT_EQ(reach_test::probe_steps(lu, m, 0, /*do_btran=*/false, x), block);
  for (std::size_t k = 0; k < block; ++k) {
    EXPECT_NEAR(x.value[k], std::pow(0.5, static_cast<double>(k)), 1e-12) << k;
  }
  for (std::size_t k = block; k < m; ++k) EXPECT_EQ(x.value[k], 0.0) << k;

  // Head of block 1: same shape, confined to the second block.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block, /*do_btran=*/false, x), block);
  for (std::size_t k = 0; k < block; ++k) EXPECT_EQ(x.value[k], 0.0) << k;

  // Tail positions depend on no other column: exactly one step each.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block - 1, /*do_btran=*/false, x), 1u);
  EXPECT_EQ(reach_test::probe_steps(lu, m, m - 1, /*do_btran=*/false, x), 1u);

  // BTRAN transposes the dependency: the tail of a block reaches the whole
  // block, its head exactly one step.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block - 1, /*do_btran=*/true, x), block);
  EXPECT_EQ(reach_test::probe_steps(lu, m, 0, /*do_btran=*/true, x), 1u);
}

TEST(BasisLuReach, FullSweepCountsTheWholeDimensionAndMatchesReachValues) {
  // Differential: the same factorization solved through the reach set
  // (kSparse) and the full sweep (kDense) returns bit-identical values,
  // while the stats separate reach from dimension.
  using reach_test::Columns;
  Rng rng(0x2EAC);
  const std::size_t m = 24;
  Columns cols;
  for (std::size_t k = 0; k < m; ++k) {
    std::vector<std::uint32_t> r{static_cast<std::uint32_t>(k)};
    std::vector<double> v{3.0 + rng.uniform_real(0.0, 2.0)};
    for (std::size_t i = 0; i < m; ++i) {
      if (i != k && rng.bernoulli(0.15)) {
        r.push_back(static_cast<std::uint32_t>(i));
        v.push_back(rng.uniform_real(-1.0, 1.0));
      }
    }
    cols.add(std::move(r), std::move(v));
  }
  BasisLu reach, sweep;
  ASSERT_TRUE(reach.factorize(m, cols.views()));
  ASSERT_TRUE(sweep.factorize(m, cols.views()));
  ScatteredVector a, b;
  for (int probe = 0; probe < 12; ++probe) {
    a.reset(m);
    b.reset(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.bernoulli(0.2)) {
        const double value = rng.uniform_real(-2.0, 2.0);
        a.push(static_cast<std::uint32_t>(i), value);
        b.push(static_cast<std::uint32_t>(i), value);
      }
    }
    if (probe % 2 == 0) {
      reach.ftran(a, BasisLu::SolveHint::kSparse);
      sweep.ftran(b, BasisLu::SolveHint::kDense);
    } else {
      reach.btran(a, BasisLu::SolveHint::kSparse);
      sweep.btran(b, BasisLu::SolveHint::kDense);
    }
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(a.value[i], b.value[i]) << "probe " << probe << " pos " << i;
    }
  }
  // The full sweep always pays the whole dimension; reach solves report at
  // most that (and their budgeted fallbacks count m too, so the fraction
  // is an honest average).
  EXPECT_EQ(sweep.stats().ftran_reach_steps, sweep.stats().ftran_calls * m);
  EXPECT_EQ(sweep.stats().btran_reach_steps, sweep.stats().btran_calls * m);
  EXPECT_LE(reach.stats().ftran_reach_steps, sweep.stats().ftran_reach_steps);
  EXPECT_LE(reach.stats().btran_reach_steps, sweep.stats().btran_reach_steps);
}

TEST(IncrementalSimplex, RejectsBadInput) {
  LpProblem empty_rows(Objective::kMaximize);
  empty_rows.add_variable(1.0);
  EXPECT_THROW(IncrementalSimplex bad(empty_rows), Error);

  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  IncrementalSimplex engine(lp);
  EXPECT_THROW(engine.add_column(1.0, {{7, 1.0}}), Error);  // row out of range
  EXPECT_THROW(engine.append_row({{x, 1.0}}, RowSense::kEqual, 1.0), Error);
  EXPECT_THROW(engine.append_row({{9, 1.0}}, RowSense::kLessEqual, 1.0), Error);
  EXPECT_THROW(engine.set_row_rhs(5, 1.0), Error);  // row out of range
}

}  // namespace
}  // namespace bt
