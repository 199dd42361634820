#pragma once

// Sparse LU factorization of a simplex basis with Forrest-Tomlin updates.
//
// The revised simplex needs two kernels per iteration: FTRAN (solve
// B w = a for the entering column's direction) and BTRAN (solve
// B^T y = c_B for the duals used in pricing).  This module keeps B in
// factored form
//
//     B = P^T L U Q^T,   updated in place as basis columns are replaced
//
// where L/U come from a Markowitz-ordered sparse Gaussian elimination
// (pivots chosen to minimize (row_count-1)*(col_count-1) fill, subject to a
// threshold |a_ij| >= tau * max|column|).  Solves walk only the stored
// nonzeros; right-hand sides and results are carried as ScatteredVector
// (dense values + the list of touched positions) so that clearing between
// solves is O(nnz), not O(m).
//
// Basis changes use Forrest-Tomlin updates: replace the leaving column of
// U with the spike L^{-1} a, rotate the pivot to the end of the elimination
// order, and eliminate the leaving row's entries with row operations that
// are recorded as a short "row eta".  U stays genuinely triangular (in the
// permuted order), so FTRAN/BTRAN cost stays proportional to the factor
// fill plus the (small) row-eta file -- it does not grow with one dense eta
// vector per pivot.  Both the row-wise U and the transposed factors used by
// the push-style BTRAN are updated in place.
//
// Triangular solves are hypersparse where it pays: before a solve, a
// Gilbert-Peierls flood fill over the static factor dependency structure
// computes the exact structural closure of the right-hand side's nonzeros,
// and only the reached elimination steps are visited, so a hypersparse
// solve (unit rho rows, entering columns, rhs deltas) costs
// O(reach log reach) instead of O(m).  A closure that outgrows its budget
// falls back to the full sweep over all m steps (as does SolveHint::kDense).
// The reached steps are processed in the *same* elimination order the full
// sweep uses (sorted, not DFS postorder), so both paths perform
// bit-identical floating-point arithmetic.
//
// The owning solver refactorizes periodically
// (SimplexOptions::refactor_period) or when update() reports a numerically
// unsafe pivot, which restores a fresh L U and empties the update files.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/engine_stats.hpp"

namespace bt {

/// Dense-storage sparse vector: `value` has size m, `nonzero` lists the
/// positions that may hold non-zeros (a superset is fine).  Clearing touches
/// only the listed positions.
struct ScatteredVector {
  std::vector<double> value;
  std::vector<std::uint32_t> nonzero;

  void reset(std::size_t m) {
    for (const std::uint32_t i : nonzero) value[i] = 0.0;
    nonzero.clear();
    if (value.size() != m) value.assign(m, 0.0);
  }
  void push(std::uint32_t i, double v) {
    value[i] = v;
    nonzero.push_back(i);
  }
};

/// Read-only view of one sparse basis column: (row, value) pairs.
struct SparseColumnView {
  const std::uint32_t* rows = nullptr;
  const double* vals = nullptr;
  std::size_t nnz = 0;
};

/// LU-factored simplex basis with in-place (Forrest-Tomlin) updates between
/// refactorizations.
///
/// Position space: basis position k holds the k-th basic variable, i.e.
/// column k of B; row space: the constraint rows.  ftran maps a row-space
/// right-hand side to a position-space result, btran the reverse.
class BasisLu {
 public:
  /// Caller-side density class of one solve.  kAuto (bulk solves: basic
  /// values, cost BTRANs, entering columns) and kSparse (unit rho rows,
  /// rhs deltas, tau solves) adapt independently: each class attempts the
  /// budgeted reach traversal until a streak of abandoned floods shows its
  /// closures are dense here, then skips the flood and re-probes
  /// periodically.  A right-hand side whose support already exceeds the
  /// budget skips for free without biasing the streak.  kDense always
  /// takes the full sweep.
  enum class SolveHint { kAuto, kSparse, kDense };

  /// Collect per-call wall-clock in the stats (counters are always on).
  void set_collect_timing(bool collect) { collect_timing_ = collect; }

  /// FTRAN/BTRAN call, reach and (optional) timing counters accumulated
  /// since the last reset_stats(); only the kernel fields are filled.
  const LpEngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = LpEngineStats{}; }

  /// Factorize the m x m basis whose k-th column is `columns[k]`.  Discards
  /// any pending updates.  Returns false if the basis is numerically
  /// singular (the previous factorization is then invalid).
  bool factorize(std::size_t m, const std::vector<SparseColumnView>& columns);

  /// Solve B x = a in place: on entry `x` holds a row-space right-hand side,
  /// on exit the position-space solution (nonzero list maintained).
  void ftran(ScatteredVector& x, SolveHint hint = SolveHint::kAuto);

  /// Solve B^T y = c in place: on entry `x` holds a position-space cost
  /// vector, on exit the row-space duals (nonzero list maintained).
  void btran(ScatteredVector& x, SolveHint hint = SolveHint::kAuto);

  /// Update the factorization for a pivot that replaces the basic variable
  /// at position `leave_pos`, where `w` = ftran(entering column).  Returns
  /// false when the update pivot is too small or the elimination is
  /// unstable; the factorization is then invalid and the caller must
  /// refactorize with the new basis.
  bool update(std::size_t leave_pos, const ScatteredVector& w);

  /// Number of update() pivots applied since the last factorization.
  std::size_t update_count() const { return updates_; }
  std::size_t dimension() const { return m_; }

 private:
  /// Forrest-Tomlin row eta: the row operations that eliminated the leaving
  /// row, i.e. z[step] -= sum_i mult[i] * z[src[i]] applied between the L
  /// and U solves (transposed in BTRAN).
  struct RowEta {
    std::uint32_t step;
    std::vector<std::uint32_t> src;
    std::vector<double> mult;
  };

  bool collect_timing_ = false;
  LpEngineStats stats_;
  std::size_t m_ = 0;
  std::size_t updates_ = 0;
  // Elimination step k pivoted on (row pivot_row_[k], column pivot_col_[k]).
  std::vector<std::uint32_t> pivot_row_;
  std::vector<std::uint32_t> pivot_col_;
  std::vector<double> diag_;  ///< U diagonal per step
  // L column per step: multipliers at still-active original rows.
  std::vector<std::vector<std::uint32_t>> lrows_;
  std::vector<std::vector<double>> lvals_;
  // U row per step: entries at still-active original columns (excl. diag).
  std::vector<std::vector<std::uint32_t>> ucols_;
  std::vector<std::vector<double>> uvals_;
  std::vector<std::uint32_t> step_of_row_;  ///< inverse of pivot_row_
  std::vector<std::uint32_t> step_of_col_;  ///< inverse of pivot_col_
  // Transposed factors, indexed by step: U by column and L^T by row.  The
  // backward substitutions run push-style over these so that a sparse
  // right-hand side only touches the steps it actually reaches (the forward
  // substitutions already skip zero positions on the row-wise factors).
  std::vector<std::vector<std::uint32_t>> utrans_step_;
  std::vector<std::vector<double>> utrans_val_;
  std::vector<std::vector<std::uint32_t>> ltrans_step_;
  std::vector<std::vector<double>> ltrans_val_;

  // Elimination order of the steps.  A fresh factorization uses the
  // identity; Forrest-Tomlin updates rotate the updated step to the end.
  // U is upper triangular with respect to this order, so the triangular
  // solves iterate order_ instead of the raw step index.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> order_pos_;  ///< inverse of order_

  std::vector<RowEta> ft_etas_;  ///< row-eta file

  bool forrest_tomlin_update(std::uint32_t leave_pos, const ScatteredVector& w);

  /// Deduplicate a nonzero list and drop exact zeros, so callers can treat
  /// it as an exact support set (e.g. for delta updates of xb).
  void compact_nonzeros(ScatteredVector& x);

  // Solve workspaces (sized m_), reused across calls.  `work_` is all-zero
  // between solves (a reach solve clears exactly the steps it reached, the
  // full sweep re-zeros every entry in its scatter pass).
  std::vector<double> work_;
  std::vector<char> flag_;
  // Reach-set traversal state: flags + the reached step list (segments per
  // solve phase) and the flood-fill stack.
  std::vector<char> reach_flag_;
  std::vector<std::uint32_t> reach_;
  std::vector<std::uint32_t> reach_stack_;
  // Adaptive solve behavior, per kernel x hint class (0 = kAuto,
  // 1 = kSparse): after kDenseStreakLimit consecutive abandoned floods the
  // flood is skipped, re-probing every kSparseProbePeriod calls.
  std::uint32_t ftran_dense_streak_[2] = {0, 0};
  std::uint32_t btran_dense_streak_[2] = {0, 0};
  std::uint32_t ftran_probe_countdown_[2] = {0, 0};
  std::uint32_t btran_probe_countdown_[2] = {0, 0};

  /// Flood-fill the structural closure of the steps already in
  /// reach_[first..] over the step adjacency `adj` (L rows mapped through
  /// step_of_row_, or the transposed-factor step lists), appending newly
  /// reached steps to reach_.  Returns false -- leaving the partial
  /// closure flagged for the caller to abandon -- as soon as the list
  /// grows past `budget`.
  template <typename Adjacency>
  bool extend_reach(std::size_t first, std::size_t budget, const Adjacency& adj);

  /// Unflag and drop the current reach list (abandoned traversal).
  void abandon_reach();
  /// Reach budget for this factor dimension (kReachBudgetFraction * m).
  std::size_t reach_budget() const;

  void ftran_dispatch(ScatteredVector& x, SolveHint hint);
  void btran_dispatch(ScatteredVector& x, SolveHint hint);
  // Triangular solves; the reach variants run the budgeted structural
  // closure first and return false -- with no numeric state touched --
  // when it exceeds the budget, upon which the dispatcher falls back to
  // the full sweep.
  void ftran_full(ScatteredVector& x);
  void btran_full(ScatteredVector& x);
  bool ftran_reach(ScatteredVector& x);
  bool btran_reach(ScatteredVector& x);
  // Forrest-Tomlin update workspaces (sized m_).
  std::vector<double> spike_;
  std::vector<char> spike_flag_;
  std::vector<std::uint32_t> spike_nz_;
  std::vector<double> elim_;
  std::vector<char> elim_flag_;
  std::vector<std::uint32_t> elim_heap_;

  // Factorization workspace, reused across refactorizations so a periodic
  // refactor costs no per-column allocations (the inner vectors keep their
  // capacity between calls).
  struct FactorWorkspace {
    std::vector<std::vector<std::uint32_t>> crows;
    std::vector<std::vector<double>> cvals;
    std::vector<std::vector<std::uint32_t>> row_cols;
    std::vector<std::uint32_t> row_count;
    std::vector<double> colmax;
    std::vector<char> row_active, col_active;
    std::vector<std::int64_t> epos;
    std::vector<std::size_t> bucket_head, bnext, bprev, bkey;
  };
  FactorWorkspace fw_;
};

}  // namespace bt
