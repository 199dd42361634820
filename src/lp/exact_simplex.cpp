#include "lp/exact_simplex.hpp"

namespace bt {

namespace {

/// Dense tableau: one row per constraint plus the objective row, columns
/// [structural | slack or surplus | artificial | rhs].  The objective row
/// holds y^T A_j - c_j per column (negative = improving, maximization) and
/// the current objective value in the rhs column.
struct Tableau {
  std::vector<std::vector<Rational>> t;
  std::vector<std::size_t> basis;  ///< basic column per constraint row
  std::size_t m = 0;               ///< constraint rows (t[m] is the objective)
  std::size_t rhs = 0;             ///< index of the rhs column
  std::size_t pivots = 0;

  void pivot(std::size_t row, std::size_t col) {
    const Rational p = t[row][col];
    for (Rational& v : t[row]) {
      if (!v.is_zero()) v /= p;
    }
    for (std::size_t i = 0; i <= m; ++i) {
      if (i == row || t[i][col].is_zero()) continue;
      const Rational factor = t[i][col];
      for (std::size_t j = 0; j <= rhs; ++j) {
        if (!t[row][j].is_zero()) t[i][j] -= factor * t[row][j];
      }
    }
    basis[row] = col;
    ++pivots;
  }

  /// Price the objective row for `cost` (one entry per non-rhs column)
  /// over the current basis.
  void set_objective(const std::vector<Rational>& cost) {
    std::vector<Rational>& obj = t[m];
    for (std::size_t j = 0; j < rhs; ++j) obj[j] = -cost[j];
    obj[rhs] = Rational(0);
    for (std::size_t i = 0; i < m; ++i) {
      const Rational& cb = cost[basis[i]];
      if (cb.is_zero()) continue;
      for (std::size_t j = 0; j <= rhs; ++j) {
        if (!t[i][j].is_zero()) obj[j] += cb * t[i][j];
      }
    }
  }

  /// Bland's-rule primal simplex on the objective row, entering only
  /// columns below `entering_limit`.  Returns false when unbounded.
  bool maximize(std::size_t entering_limit) {
    while (true) {
      std::size_t entering = entering_limit;
      for (std::size_t j = 0; j < entering_limit; ++j) {
        if (t[m][j].sign() < 0) {
          entering = j;
          break;
        }
      }
      if (entering == entering_limit) return true;

      // Ratio test, ties broken by the smallest basic column (Bland).
      std::size_t leaving = m;
      Rational best_ratio;
      for (std::size_t i = 0; i < m; ++i) {
        if (t[i][entering].sign() <= 0) continue;
        const Rational ratio = t[i][rhs] / t[i][entering];
        if (leaving == m || ratio < best_ratio ||
            (ratio == best_ratio && basis[i] < basis[leaving])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
      if (leaving == m) return false;
      pivot(leaving, entering);
    }
  }
};

}  // namespace

ExactSolution solve_exact_lp(const LpProblem& problem) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  // Internally maximize sense * c; row i is multiplied by flip[i] so that
  // its right-hand side is non-negative.
  const Rational sense(problem.objective() == Objective::kMaximize ? 1 : -1);
  std::vector<Rational> flip(m, Rational(1));
  std::vector<RowSense> senses(m);
  std::size_t inequalities = 0, artificials = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const LpProblem::Row& row = problem.row(i);
    senses[i] = row.sense;
    if (row.rhs < 0.0) {
      flip[i] = Rational(-1);
      if (row.sense == RowSense::kLessEqual) senses[i] = RowSense::kGreaterEqual;
      if (row.sense == RowSense::kGreaterEqual) senses[i] = RowSense::kLessEqual;
    }
    if (senses[i] != RowSense::kEqual) ++inequalities;
    if (senses[i] != RowSense::kLessEqual) ++artificials;
  }

  // Every row gets a unit column that can start basic -- its slack (<=) or
  // its artificial (>= and =) -- whose final objective-row entry is the
  // row's dual.
  const std::size_t art_begin = n + inequalities;
  Tableau tab;
  tab.m = m;
  tab.rhs = art_begin + artificials;
  tab.t.assign(m + 1, std::vector<Rational>(tab.rhs + 1, Rational(0)));
  tab.basis.resize(m);
  std::vector<std::size_t> unit_col(m);
  std::size_t next_slack = n, next_art = art_begin;
  for (std::size_t i = 0; i < m; ++i) {
    const LpProblem::Row& row = problem.row(i);
    for (const LpTerm& term : row.terms) {
      tab.t[i][term.var] = flip[i] * Rational::from_double(term.coeff);
    }
    tab.t[i][tab.rhs] = flip[i] * Rational::from_double(row.rhs);
    if (senses[i] == RowSense::kGreaterEqual) tab.t[i][next_slack++] = Rational(-1);
    if (senses[i] == RowSense::kLessEqual) {
      unit_col[i] = next_slack++;
    } else {
      unit_col[i] = next_art++;
    }
    tab.t[i][unit_col[i]] = Rational(1);
    tab.basis[i] = unit_col[i];
  }

  ExactSolution solution;
  if (artificials > 0) {
    // Phase 1: maximize -sum(artificials); bounded above by zero.
    std::vector<Rational> phase1(tab.rhs, Rational(0));
    for (std::size_t j = art_begin; j < tab.rhs; ++j) phase1[j] = Rational(-1);
    tab.set_objective(phase1);
    tab.maximize(tab.rhs);
    if (tab.t[m][tab.rhs].sign() < 0) {
      solution.status = ExactStatus::kInfeasible;
      solution.pivots = tab.pivots;
      return solution;
    }
    // Drive the (zero-valued) artificials out of the basis.  A row with no
    // non-artificial entry left is redundant: its artificial stays basic
    // at zero, and no later pivot touches the row.
    for (std::size_t i = 0; i < m; ++i) {
      if (tab.basis[i] < art_begin) continue;
      for (std::size_t j = 0; j < art_begin; ++j) {
        if (!tab.t[i][j].is_zero()) {
          tab.pivot(i, j);
          break;
        }
      }
    }
  }

  // Phase 2: artificials may no longer enter.
  std::vector<Rational> c(n);
  std::vector<Rational> cost(tab.rhs, Rational(0));
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = Rational::from_double(problem.objective_coeff(j));
    cost[j] = sense * c[j];
  }
  tab.set_objective(cost);
  const bool bounded = tab.maximize(art_begin);
  solution.pivots = tab.pivots;
  if (!bounded) {
    solution.status = ExactStatus::kUnbounded;
    return solution;
  }

  solution.x.assign(n, Rational(0));
  for (std::size_t i = 0; i < m; ++i) {
    if (tab.basis[i] < n) solution.x[tab.basis[i]] = tab.t[i][tab.rhs];
  }
  solution.objective = Rational(0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!solution.x[j].is_zero()) solution.objective += c[j] * solution.x[j];
  }
  // The internal duals price the flipped rows under sense * c; map them
  // back to the stated rows and objective.
  solution.duals.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    solution.duals[i] = sense * flip[i] * tab.t[m][unit_col[i]];
  }
  return solution;
}

}  // namespace bt
