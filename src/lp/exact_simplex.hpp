#pragma once

// Exact tableau simplex over the rationals.
//
// Validation-grade oracle for every program solve_lp (simplex.hpp) accepts:
// an LpProblem with <=, >= and = rows, right-hand sides of any sign and
// either objective sense.  Every coefficient converts exactly
// (Rational::from_double), so the oracle solves precisely the program the
// floating-point engine sees, echoing the paper's "solve over the rationals
// with Maple/MuPAD".  Rows with a negative right-hand side are negated;
// >= and = rows then start from phase-1 artificials.  Programs whose rows
// are all <= with b >= 0 -- the master programs in this repository -- skip
// phase 1 and start from the slack basis.  Both phases pivot by Bland's
// rule, which guarantees termination; all arithmetic is exact.
//
// Dense tableau, O(rows * cols) per pivot: intended for the test-suite's
// small instances, not for production solves.

#include <cstddef>
#include <vector>

#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"

namespace bt {

enum class ExactStatus { kOptimal, kUnbounded, kInfeasible };

struct ExactSolution {
  ExactStatus status = ExactStatus::kOptimal;
  /// Objective value in the problem's own sense (max or min).
  Rational objective;
  std::vector<Rational> x;
  /// Optimal duals, one per constraint row, in LpSolution's sign
  /// convention: y^T A_B = c_B over the final basis, so b^T y = c^T x
  /// exactly, and in a maximize problem the duals of <= rows are >= 0 and
  /// those of >= rows are <= 0.
  std::vector<Rational> duals;
  std::size_t pivots = 0;
};

/// Solve `problem` exactly.  Throws bt::Error when a coefficient is not
/// finite or does not fit a 64-bit rational, or when the arithmetic
/// overflows.
ExactSolution solve_exact_lp(const LpProblem& problem);

}  // namespace bt
