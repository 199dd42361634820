#include "lp/basis_lu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace bt {

namespace {

/// Markowitz threshold: a pivot must be at least this fraction of the
/// largest entry in its column (stability vs. sparsity trade-off).
constexpr double kPivotThreshold = 0.1;
/// Entries below this are not acceptable pivots; a basis whose remaining
/// columns have no larger entry is reported singular.
constexpr double kSingularTol = 1e-11;
/// Safety floor for the update pivot; below it update() asks the caller to
/// refactorize instead.
constexpr double kUpdateTol = 1e-11;
/// A Forrest-Tomlin elimination multiplier above this magnitude signals an
/// unstable update; the caller refactorizes instead.
constexpr double kFtGrowthLimit = 1e8;
/// Markowitz search examines at most this many eligible columns per step
/// (walking the count buckets upward), Suhl-style.  Scanning everything
/// would make each factorization O(m * nnz).
constexpr std::size_t kMarkowitzCandidates = 8;

/// Reach-set cutover: the structural closure is only *processed* sparsely
/// while it stays below this fraction of the dimension; a flood that grows
/// past the budget abandons the traversal and the solve falls back to the
/// full sweep.  Reach bookkeeping (flood stack + sorts) costs ~2-3x the
/// plain per-step sweep work, so hypersparse processing only profits on
/// genuinely sparse closures -- unit rho rows, rhs deltas, sparse entering
/// columns -- which is exactly where it turns O(m) solves into O(reach).
constexpr double kReachBudgetFraction = 0.3;

/// Adaptive kAuto solves: after this many consecutive abandoned reach
/// traversals the structural flood is skipped entirely ...
constexpr std::uint32_t kDenseStreakLimit = 4;
/// ... re-probing the closure density once per this many skipped calls.
constexpr std::uint32_t kSparseProbePeriod = 16;

}  // namespace

bool BasisLu::factorize(std::size_t m, const std::vector<SparseColumnView>& columns) {
  if (fault_fire(FaultSite::kSingularRefactor)) return false;
  m_ = m;
  ft_etas_.clear();
  updates_ = 0;
  pivot_row_.clear();
  pivot_col_.clear();
  diag_.clear();
  if (lrows_.size() < m) {
    lrows_.resize(m);
    lvals_.resize(m);
    ucols_.resize(m);
    uvals_.resize(m);
  }
  for (std::size_t k = 0; k < m; ++k) {
    lrows_[k].clear();
    lvals_[k].clear();
    ucols_[k].clear();
    uvals_[k].clear();
  }
  pivot_row_.reserve(m);
  pivot_col_.reserve(m);
  diag_.reserve(m);
  work_.assign(m, 0.0);
  flag_.assign(m, 0);
  reach_flag_.assign(m, 0);
  reach_.clear();
  // Fresh factor structure: let the adaptive solves re-probe their density.
  for (std::size_t c = 0; c < 2; ++c) {
    ftran_dense_streak_[c] = 0;
    btran_dense_streak_[c] = 0;
    ftran_probe_countdown_[c] = 0;
    btran_probe_countdown_[c] = 0;
  }
  spike_.assign(m, 0.0);
  spike_flag_.assign(m, 0);
  spike_nz_.clear();
  elim_.assign(m, 0.0);
  elim_flag_.assign(m, 0);
  elim_heap_.clear();
  order_.resize(m);
  order_pos_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    order_[k] = static_cast<std::uint32_t>(k);
    order_pos_[k] = static_cast<std::uint32_t>(k);
  }

  // Working copy of B, column-wise, plus row occupancy for Markowitz counts.
  // Column entry lists stay exact (entries are removed the moment their row
  // or column leaves the active submatrix); row_cols may carry stale column
  // ids, which are filtered on use.  All of it lives in the reusable
  // workspace: clear()ed vectors keep their heap buffers across refactors.
  auto& crows = fw_.crows;
  auto& cvals = fw_.cvals;
  auto& row_count = fw_.row_count;
  auto& row_cols = fw_.row_cols;
  auto& colmax = fw_.colmax;
  if (crows.size() < m) {
    crows.resize(m);
    cvals.resize(m);
    row_cols.resize(m);
  }
  row_count.assign(m, 0);
  colmax.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) row_cols[i].clear();
  for (std::size_t j = 0; j < m; ++j) {
    const SparseColumnView& col = columns[j];
    crows[j].assign(col.rows, col.rows + col.nnz);
    cvals[j].assign(col.vals, col.vals + col.nnz);
    for (std::size_t t = 0; t < col.nnz; ++t) {
      ++row_count[col.rows[t]];
      row_cols[col.rows[t]].push_back(static_cast<std::uint32_t>(j));
      colmax[j] = std::max(colmax[j], std::abs(col.vals[t]));
    }
  }
  auto& row_active = fw_.row_active;
  auto& col_active = fw_.col_active;
  auto& epos = fw_.epos;
  row_active.assign(m, 1);
  col_active.assign(m, 1);
  epos.assign(m, -1);  // scatter map for the column update

  // Count buckets: intrusive doubly-linked lists of active columns keyed by
  // their entry count, so the pivot search walks the sparsest columns first
  // instead of scanning everything.
  const std::size_t nil = m;
  auto& bucket_head = fw_.bucket_head;
  auto& bnext = fw_.bnext;
  auto& bprev = fw_.bprev;
  auto& bkey = fw_.bkey;
  bucket_head.assign(m + 1, nil);
  bnext.assign(m, nil);
  bprev.assign(m, nil);
  bkey.assign(m, nil);
  auto bucket_remove = [&](std::size_t j) {
    if (bkey[j] == nil) return;
    if (bprev[j] != nil) bnext[bprev[j]] = bnext[j];
    else bucket_head[bkey[j]] = bnext[j];
    if (bnext[j] != nil) bprev[bnext[j]] = bprev[j];
    bkey[j] = nil;
  };
  auto bucket_insert = [&](std::size_t j) {
    const std::size_t c = std::min(crows[j].size(), m);
    bkey[j] = c;
    bprev[j] = nil;
    bnext[j] = bucket_head[c];
    if (bucket_head[c] != nil) bprev[bucket_head[c]] = j;
    bucket_head[c] = j;
  };
  for (std::size_t j = 0; j < m; ++j) bucket_insert(j);

  for (std::size_t step = 0; step < m; ++step) {
    // ---- Markowitz pivot search with threshold partial pivoting: examine
    // the first kMarkowitzCandidates eligible columns, sparsest first. ----
    double best_cost = std::numeric_limits<double>::infinity();
    double best_val = 0.0;
    std::uint32_t best_row = 0, best_col = 0;
    bool found = false;
    std::size_t examined = 0;
    for (std::size_t c = 0; c <= m && examined < kMarkowitzCandidates && best_cost > 0.0; ++c) {
      for (std::size_t j = bucket_head[c];
           j != nil && examined < kMarkowitzCandidates && best_cost > 0.0; j = bnext[j]) {
        if (colmax[j] < kSingularTol) continue;
        ++examined;
        const double ccount = static_cast<double>(crows[j].size()) - 1.0;
        for (std::size_t t = 0; t < crows[j].size(); ++t) {
          const double av = std::abs(cvals[j][t]);
          if (av < kPivotThreshold * colmax[j] || av < kSingularTol) continue;
          const std::uint32_t i = crows[j][t];
          const double cost = (static_cast<double>(row_count[i]) - 1.0) * ccount;
          if (cost < best_cost || (cost == best_cost && av > std::abs(best_val))) {
            best_cost = cost;
            best_val = cvals[j][t];
            best_row = i;
            best_col = static_cast<std::uint32_t>(j);
            found = true;
          }
        }
      }
    }
    if (!found) return false;  // numerically singular basis

    const std::uint32_t ip = best_row, jp = best_col;
    const double d = best_val;
    pivot_row_.push_back(ip);
    pivot_col_.push_back(jp);
    diag_.push_back(d);
    row_active[ip] = 0;
    col_active[jp] = 0;
    bucket_remove(jp);

    // L column: the pivot column's remaining entries, scaled by 1/d.
    auto& lr = lrows_[step];
    auto& lv = lvals_[step];
    for (std::size_t t = 0; t < crows[jp].size(); ++t) {
      const std::uint32_t i = crows[jp][t];
      if (i == ip) continue;
      lr.push_back(i);
      lv.push_back(cvals[jp][t] / d);
      --row_count[i];  // the entry leaves the active submatrix with column jp
    }
    crows[jp].clear();
    cvals[jp].clear();

    // U row + rank-1 update, one pass per affected column: scatter the
    // column into epos once, detach the pivot-row entry through it (O(1)
    // instead of a linear search), apply W[j] -= u_j * L through it, and
    // refresh the column's cached max and count bucket.
    auto& uc = ucols_[step];
    auto& uv = uvals_[step];
    for (const std::uint32_t j : row_cols[ip]) {
      if (!col_active[j]) continue;
      for (std::size_t t = 0; t < crows[j].size(); ++t) {
        epos[crows[j][t]] = static_cast<std::int64_t>(t);
      }
      const std::int64_t pos = epos[ip];
      if (pos < 0) {  // stale occupancy entry
        for (const std::uint32_t i : crows[j]) epos[i] = -1;
        continue;
      }
      const double u = cvals[j][static_cast<std::size_t>(pos)];
      uc.push_back(j);
      uv.push_back(u);
      // Detach the pivot-row entry (swap-pop), keeping epos consistent.
      epos[crows[j].back()] = pos;
      epos[ip] = -1;
      crows[j][static_cast<std::size_t>(pos)] = crows[j].back();
      crows[j].pop_back();
      cvals[j][static_cast<std::size_t>(pos)] = cvals[j].back();
      cvals[j].pop_back();
      if (u != 0.0) {
        for (std::size_t t = 0; t < lr.size(); ++t) {
          const std::uint32_t i = lr[t];
          const double delta = lv[t] * u;
          if (epos[i] >= 0) {
            cvals[j][static_cast<std::size_t>(epos[i])] -= delta;
          } else if (delta != 0.0) {
            epos[i] = static_cast<std::int64_t>(crows[j].size());
            crows[j].push_back(i);
            cvals[j].push_back(-delta);
            ++row_count[i];
            row_cols[i].push_back(j);
          }
        }
      }
      double cm = 0.0;
      for (const double v : cvals[j]) cm = std::max(cm, std::abs(v));
      colmax[j] = cm;
      for (const std::uint32_t i : crows[j]) epos[i] = -1;
      bucket_remove(j);
      bucket_insert(j);
    }
    row_cols[ip].clear();
  }

  step_of_row_.assign(m, 0);
  step_of_col_.assign(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    step_of_row_[pivot_row_[k]] = static_cast<std::uint32_t>(k);
    step_of_col_[pivot_col_[k]] = static_cast<std::uint32_t>(k);
  }

  // Transposed factors for the push-style backward substitutions.
  if (utrans_step_.size() < m) {
    utrans_step_.resize(m);
    utrans_val_.resize(m);
    ltrans_step_.resize(m);
    ltrans_val_.resize(m);
  }
  for (std::size_t k = 0; k < m; ++k) {
    utrans_step_[k].clear();
    utrans_val_[k].clear();
    ltrans_step_[k].clear();
    ltrans_val_[k].clear();
  }
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t t = 0; t < ucols_[k].size(); ++t) {
      const std::uint32_t later = step_of_col_[ucols_[k][t]];
      utrans_step_[later].push_back(static_cast<std::uint32_t>(k));
      utrans_val_[later].push_back(uvals_[k][t]);
    }
    for (std::size_t t = 0; t < lrows_[k].size(); ++t) {
      const std::uint32_t later = step_of_row_[lrows_[k][t]];
      ltrans_step_[later].push_back(static_cast<std::uint32_t>(k));
      ltrans_val_[later].push_back(lvals_[k][t]);
    }
  }
  return true;
}

void BasisLu::compact_nonzeros(ScatteredVector& x) {
  std::size_t out = 0;
  for (const std::uint32_t i : x.nonzero) {
    if (x.value[i] != 0.0 && !flag_[i]) {
      flag_[i] = 1;
      x.nonzero[out++] = i;
    }
  }
  x.nonzero.resize(out);
  for (const std::uint32_t i : x.nonzero) flag_[i] = 0;
}

void BasisLu::ftran(ScatteredVector& x, SolveHint hint) {
  ++stats_.ftran_calls;
  stats_.ftran_dim_steps += m_;
  if (collect_timing_) {
    const auto t0 = std::chrono::steady_clock::now();
    ftran_dispatch(x, hint);
    stats_.ftran_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count());
  } else {
    ftran_dispatch(x, hint);
  }
}

void BasisLu::btran(ScatteredVector& x, SolveHint hint) {
  ++stats_.btran_calls;
  stats_.btran_dim_steps += m_;
  if (collect_timing_) {
    const auto t0 = std::chrono::steady_clock::now();
    btran_dispatch(x, hint);
    stats_.btran_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count());
  } else {
    btran_dispatch(x, hint);
  }
}

void BasisLu::ftran_dispatch(ScatteredVector& x, SolveHint hint) {
  bool attempt = hint != SolveHint::kDense;
  bool track = false;
  const std::size_t cls = hint == SolveHint::kSparse ? 1 : 0;
  if (attempt) {
    if (x.nonzero.size() > reach_budget()) {
      attempt = false;  // dense support: skip for free, don't bias the streak
    } else if (ftran_dense_streak_[cls] >= kDenseStreakLimit) {
      if (++ftran_probe_countdown_[cls] < kSparseProbePeriod) attempt = false;
      else {
        ftran_probe_countdown_[cls] = 0;
        track = true;
      }
    } else {
      track = true;
    }
  }
  const bool sparse = attempt && ftran_reach(x);
  if (track) ftran_dense_streak_[cls] = sparse ? 0 : ftran_dense_streak_[cls] + 1;
  if (!sparse) {
    ftran_full(x);
    stats_.ftran_reach_steps += m_;
  }
  compact_nonzeros(x);
}

void BasisLu::btran_dispatch(ScatteredVector& x, SolveHint hint) {
  bool attempt = hint != SolveHint::kDense;
  bool track = false;
  const std::size_t cls = hint == SolveHint::kSparse ? 1 : 0;
  if (attempt) {
    if (x.nonzero.size() > reach_budget()) {
      attempt = false;  // dense support: skip for free, don't bias the streak
    } else if (btran_dense_streak_[cls] >= kDenseStreakLimit) {
      if (++btran_probe_countdown_[cls] < kSparseProbePeriod) attempt = false;
      else {
        btran_probe_countdown_[cls] = 0;
        track = true;
      }
    } else {
      track = true;
    }
  }
  const bool sparse = attempt && btran_reach(x);
  if (track) btran_dense_streak_[cls] = sparse ? 0 : btran_dense_streak_[cls] + 1;
  if (!sparse) {
    btran_full(x);
    stats_.btran_reach_steps += m_;
  }
  compact_nonzeros(x);
}

template <typename Adjacency>
bool BasisLu::extend_reach(std::size_t first, std::size_t budget, const Adjacency& adj) {
  // Iterative flood fill: close reach_[first..] over `adj`.  Every visited
  // step is flagged and appended, so repeated extensions (L closure, then
  // eta targets, then U closure) compose into one combined reach list.
  // Growing past `budget` aborts: reach bookkeeping costs more than the
  // plain sweep saves on dense-ish closures (see kReachBudgetFraction).
  reach_stack_.clear();
  for (std::size_t i = first; i < reach_.size(); ++i) reach_stack_.push_back(reach_[i]);
  while (!reach_stack_.empty()) {
    const std::uint32_t k = reach_stack_.back();
    reach_stack_.pop_back();
    adj(k, [this](std::uint32_t next) {
      if (!reach_flag_[next]) {
        reach_flag_[next] = 1;
        reach_.push_back(next);
        reach_stack_.push_back(next);
      }
    });
    if (reach_.size() > budget) return false;
  }
  return true;
}

void BasisLu::abandon_reach() {
  for (const std::uint32_t k : reach_) reach_flag_[k] = 0;
  reach_.clear();
}

std::size_t BasisLu::reach_budget() const {
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(kReachBudgetFraction * static_cast<double>(m_)));
}

bool BasisLu::ftran_reach(ScatteredVector& x) {
  // ---- Structural pass (no numerics touched yet): close the rhs support
  // over L's row structure, pull in row-eta targets, close over U's column
  // structure.  Abandon to the full sweep when the closure outgrows the
  // budget. ----
  const std::size_t budget = reach_budget();
  reach_.clear();
  for (const std::uint32_t i : x.nonzero) {
    const std::uint32_t k = step_of_row_[i];
    if (!reach_flag_[k]) {
      reach_flag_[k] = 1;
      reach_.push_back(k);
    }
  }
  if (reach_.size() > budget ||
      !extend_reach(0, budget, [this](std::uint32_t k, auto&& visit) {
        for (const std::uint32_t row : lrows_[k]) visit(step_of_row_[row]);
      })) {
    abandon_reach();
    return false;
  }
  // Row-eta targets, oldest first (a target flagged here can feed later
  // etas, matching the numeric application order below).
  for (const RowEta& e : ft_etas_) {
    if (reach_flag_[e.step]) continue;
    bool touched = false;
    for (const std::uint32_t src : e.src) touched = touched || reach_flag_[src] != 0;
    if (touched) {
      reach_flag_[e.step] = 1;
      reach_.push_back(e.step);
    }
  }
  if (reach_.size() > budget ||
      !extend_reach(0, budget, [this](std::uint32_t k, auto&& visit) {
        for (const std::uint32_t s : utrans_step_[k]) visit(s);
      })) {
    abandon_reach();
    return false;
  }

  // ---- Numeric phases over the (sorted) closure -- exactly the
  // subsequence of steps the full sweep would visit, in its visit order,
  // so both strategies perform bit-identical arithmetic.  Steps reached
  // only through later phases read zeros here, as they would in the full
  // sweep. ----
  double* r = x.value.data();
  std::sort(reach_.begin(), reach_.end());
  for (const std::uint32_t k : reach_) {
    const double zk = r[pivot_row_[k]];
    work_[k] = zk;
    if (zk == 0.0) continue;
    const auto& lr = lrows_[k];
    const auto& lv = lvals_[k];
    for (std::size_t t = 0; t < lr.size(); ++t) {
      r[lr[t]] -= lv[t] * zk;
      x.nonzero.push_back(lr[t]);
    }
  }
  for (const std::uint32_t i : x.nonzero) r[i] = 0.0;
  x.nonzero.clear();

  // Forrest-Tomlin row etas, oldest first; unreached sources read zero.
  for (const RowEta& e : ft_etas_) {
    if (!reach_flag_[e.step]) continue;
    double acc = work_[e.step];
    for (std::size_t s = 0; s < e.src.size(); ++s) acc -= e.mult[s] * work_[e.src[s]];
    work_[e.step] = acc;
  }

  // Backward substitution over U in (update-permuted) elimination order.
  std::sort(reach_.begin(), reach_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return order_pos_[a] > order_pos_[b];
  });
  for (const std::uint32_t k : reach_) {
    const double wk = work_[k] / diag_[k];
    work_[k] = wk;
    if (wk == 0.0) continue;
    const auto& us = utrans_step_[k];
    const auto& uv = utrans_val_[k];
    for (std::size_t t = 0; t < us.size(); ++t) work_[us[t]] -= uv[t] * wk;
  }

  // Scatter to position space in ascending step order (the full sweep's
  // scatter order, so downstream consumers see identical nonzero lists)
  // and restore the all-zero work_ invariant.
  std::sort(reach_.begin(), reach_.end());
  for (const std::uint32_t k : reach_) {
    if (work_[k] != 0.0) x.push(pivot_col_[k], work_[k]);
    work_[k] = 0.0;
    reach_flag_[k] = 0;
  }
  stats_.ftran_reach_steps += reach_.size();
  return true;
}

bool BasisLu::btran_reach(ScatteredVector& x) {
  // ---- Structural pass: close the cost support over U's row structure,
  // pull in transposed row-eta sources (newest first), close over L^T. ----
  const std::size_t budget = reach_budget();
  reach_.clear();
  for (const std::uint32_t i : x.nonzero) {
    const std::uint32_t k = step_of_col_[i];
    if (!reach_flag_[k]) {
      reach_flag_[k] = 1;
      reach_.push_back(k);
    }
  }
  if (reach_.size() > budget ||
      !extend_reach(0, budget, [this](std::uint32_t k, auto&& visit) {
        for (const std::uint32_t colid : ucols_[k]) visit(step_of_col_[colid]);
      })) {
    abandon_reach();
    return false;
  }
  for (auto it = ft_etas_.rbegin(); it != ft_etas_.rend(); ++it) {
    if (!reach_flag_[it->step]) continue;
    for (const std::uint32_t src : it->src) {
      if (!reach_flag_[src]) {
        reach_flag_[src] = 1;
        reach_.push_back(src);
      }
    }
  }
  if (reach_.size() > budget ||
      !extend_reach(0, budget, [this](std::uint32_t k, auto&& visit) {
        for (const std::uint32_t s : ltrans_step_[k]) visit(s);
      })) {
    abandon_reach();
    return false;
  }

  // ---- Numeric phases over the sorted closure (see ftran_reach). ----
  double* c = x.value.data();
  std::sort(reach_.begin(), reach_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return order_pos_[a] < order_pos_[b];
  });
  for (const std::uint32_t k : reach_) {
    const double tk = c[pivot_col_[k]] / diag_[k];
    work_[k] = tk;
    if (tk == 0.0) continue;
    const auto& uc = ucols_[k];
    const auto& uv = uvals_[k];
    for (std::size_t t = 0; t < uc.size(); ++t) {
      c[uc[t]] -= uv[t] * tk;
      x.nonzero.push_back(uc[t]);
    }
  }
  for (const std::uint32_t i : x.nonzero) c[i] = 0.0;
  x.nonzero.clear();

  // Transposed Forrest-Tomlin row etas, newest first.
  for (auto it = ft_etas_.rbegin(); it != ft_etas_.rend(); ++it) {
    const double v = work_[it->step];
    if (v == 0.0) continue;
    for (std::size_t s = 0; s < it->src.size(); ++s) work_[it->src[s]] -= it->mult[s] * v;
  }

  // L^T solve, backward in step order (L is untouched by updates).
  std::sort(reach_.begin(), reach_.end(), std::greater<std::uint32_t>());
  for (const std::uint32_t k : reach_) {
    const double vk = work_[k];
    if (vk == 0.0) continue;
    const auto& ls = ltrans_step_[k];
    const auto& lv = ltrans_val_[k];
    for (std::size_t t = 0; t < ls.size(); ++t) work_[ls[t]] -= lv[t] * vk;
  }

  // Scatter to row space in ascending step order; restore the invariant.
  std::sort(reach_.begin(), reach_.end());
  for (const std::uint32_t k : reach_) {
    if (work_[k] != 0.0) x.push(pivot_row_[k], work_[k]);
    work_[k] = 0.0;
    reach_flag_[k] = 0;
  }
  stats_.btran_reach_steps += reach_.size();
  return true;
}

void BasisLu::ftran_full(ScatteredVector& x) {
  double* r = x.value.data();
  // L z = P a, in step order; z lands in work_.  Touched rows are appended
  // to the nonzero list so the row-space residue can be cleared in O(nnz).
  // L is never modified by Forrest-Tomlin updates, so the original step
  // order remains the valid substitution order here.
  for (std::size_t k = 0; k < m_; ++k) {
    const double zk = r[pivot_row_[k]];
    work_[k] = zk;
    if (zk == 0.0) continue;
    const auto& lr = lrows_[k];
    const auto& lv = lvals_[k];
    for (std::size_t t = 0; t < lr.size(); ++t) {
      r[lr[t]] -= lv[t] * zk;
      x.nonzero.push_back(lr[t]);
    }
  }
  for (const std::uint32_t i : x.nonzero) r[i] = 0.0;
  x.nonzero.clear();

  // Forrest-Tomlin row etas, oldest first: the row operations that kept U
  // triangular act on the intermediate vector between the L and U solves.
  for (const RowEta& e : ft_etas_) {
    double acc = work_[e.step];
    for (std::size_t s = 0; s < e.src.size(); ++s) acc -= e.mult[s] * work_[e.src[s]];
    work_[e.step] = acc;
  }

  // U w = z, backward substitution, push-style over U's columns: a zero
  // position propagates nothing, so sparse right-hand sides only pay for
  // the steps they actually reach.  U is triangular with respect to the
  // (update-permuted) elimination order, so iterate order_, not the step id.
  for (std::size_t idx = m_; idx-- > 0;) {
    const std::uint32_t k = order_[idx];
    const double wk = work_[k] / diag_[k];
    work_[k] = wk;
    if (wk == 0.0) continue;
    const auto& us = utrans_step_[k];
    const auto& uv = utrans_val_[k];
    for (std::size_t t = 0; t < us.size(); ++t) work_[us[t]] -= uv[t] * wk;
  }

  // Scatter to position space (x[q_k] = w_k), re-zeroing each slot so the
  // all-zero work_ invariant of the reach traversal survives full sweeps.
  for (std::size_t k = 0; k < m_; ++k) {
    const double wk = work_[k];
    work_[k] = 0.0;
    if (wk != 0.0) x.push(pivot_col_[k], wk);
  }
}

void BasisLu::btran_full(ScatteredVector& x) {
  double* c = x.value.data();
  // U^T t = Q^T c, forward over the elimination order (push to later
  // steps); t lands in work_.
  for (std::size_t idx = 0; idx < m_; ++idx) {
    const std::uint32_t k = order_[idx];
    const double tk = c[pivot_col_[k]] / diag_[k];
    work_[k] = tk;
    if (tk == 0.0) continue;
    const auto& uc = ucols_[k];
    const auto& uv = uvals_[k];
    for (std::size_t t = 0; t < uc.size(); ++t) {
      c[uc[t]] -= uv[t] * tk;
      x.nonzero.push_back(uc[t]);
    }
  }
  for (const std::uint32_t i : x.nonzero) c[i] = 0.0;
  x.nonzero.clear();

  // Transposed Forrest-Tomlin row etas, newest first.
  for (auto it = ft_etas_.rbegin(); it != ft_etas_.rend(); ++it) {
    const double v = work_[it->step];
    if (v == 0.0) continue;
    for (std::size_t s = 0; s < it->src.size(); ++s) work_[it->src[s]] -= it->mult[s] * v;
  }

  // L^T v = t, backward, push-style over L's transposed rows (zero
  // positions propagate nothing), in place in work_.  L is untouched by
  // updates, so the original step order is the right substitution order.
  for (std::size_t k = m_; k-- > 0;) {
    const double vk = work_[k];
    if (vk == 0.0) continue;
    const auto& ls = ltrans_step_[k];
    const auto& lv = ltrans_val_[k];
    for (std::size_t t = 0; t < ls.size(); ++t) work_[ls[t]] -= lv[t] * vk;
  }

  // Scatter to row space (y[p_k] = v_k), re-zeroing each slot so the
  // all-zero work_ invariant of the reach traversal survives full sweeps.
  for (std::size_t k = 0; k < m_; ++k) {
    const double vk = work_[k];
    work_[k] = 0.0;
    if (vk != 0.0) x.push(pivot_row_[k], vk);
  }
}

bool BasisLu::update(std::size_t leave_pos, const ScatteredVector& w) {
  const double piv = w.value[leave_pos];
  if (std::abs(piv) < kUpdateTol) return false;
  return forrest_tomlin_update(static_cast<std::uint32_t>(leave_pos), w);
}

bool BasisLu::forrest_tomlin_update(std::uint32_t leave_pos, const ScatteredVector& w) {
  // Replace basis column `leave_pos`, factored at step t, with the entering
  // column a (given as w = B^{-1} a).  On failure the factors are left
  // partially modified and invalid: the caller must refactorize.
  const std::uint32_t t = step_of_col_[leave_pos];

  // ---- 1. Spike s = L^{-1} a, recovered as s = U w (both in step space;
  // valid because the Forrest-Tomlin update keeps U exact).  U column c
  // holds diag_[c] plus utrans entries.
  spike_nz_.clear();
  for (const std::uint32_t j : w.nonzero) {
    const double wv = w.value[j];
    if (wv == 0.0) continue;
    const std::uint32_t c = step_of_col_[j];
    if (!spike_flag_[c]) {
      spike_flag_[c] = 1;
      spike_[c] = 0.0;
      spike_nz_.push_back(c);
    }
    spike_[c] += diag_[c] * wv;
    const auto& us = utrans_step_[c];
    const auto& uv = utrans_val_[c];
    for (std::size_t s = 0; s < us.size(); ++s) {
      const std::uint32_t k = us[s];
      if (!spike_flag_[k]) {
        spike_flag_[k] = 1;
        spike_[k] = 0.0;
        spike_nz_.push_back(k);
      }
      spike_[k] += uv[s] * wv;
    }
  }
  double dval = spike_flag_[t] ? spike_[t] : 0.0;

  // ---- 2. Detach row t of U; its entries seed the elimination row. ----
  elim_heap_.clear();
  for (std::size_t s = 0; s < ucols_[t].size(); ++s) {
    const std::uint32_t cstep = step_of_col_[ucols_[t][s]];
    elim_[cstep] = uvals_[t][s];
    elim_flag_[cstep] = 1;
    elim_heap_.push_back(cstep);
    auto& ts = utrans_step_[cstep];
    auto& tv = utrans_val_[cstep];
    for (std::size_t q = 0; q < ts.size(); ++q) {
      if (ts[q] == t) {
        ts[q] = ts.back();
        ts.pop_back();
        tv[q] = tv.back();
        tv.pop_back();
        break;
      }
    }
  }
  ucols_[t].clear();
  uvals_[t].clear();

  // ---- 3. Detach column t of U. ----
  for (const std::uint32_t k : utrans_step_[t]) {
    auto& rc = ucols_[k];
    auto& rv = uvals_[k];
    for (std::size_t q = 0; q < rc.size(); ++q) {
      if (rc[q] == leave_pos) {
        rc[q] = rc.back();
        rc.pop_back();
        rv[q] = rv.back();
        rv.pop_back();
        break;
      }
    }
  }
  utrans_step_[t].clear();
  utrans_val_[t].clear();

  // ---- 4. Rotate step t to the end of the elimination order. ----
  for (std::uint32_t p = order_pos_[t]; p + 1 < m_; ++p) {
    order_[p] = order_[p + 1];
    order_pos_[order_[p]] = p;
  }
  order_[m_ - 1] = t;
  order_pos_[t] = static_cast<std::uint32_t>(m_ - 1);

  // ---- 5. Insert the spike as the new column t: every other step now
  // precedes t in the order, so all its entries are upper triangular. ----
  for (const std::uint32_t k : spike_nz_) {
    const double sv = spike_[k];
    spike_flag_[k] = 0;
    spike_[k] = 0.0;
    if (k == t || sv == 0.0) continue;
    ucols_[k].push_back(leave_pos);
    uvals_[k].push_back(sv);
    utrans_step_[t].push_back(k);
    utrans_val_[t].push_back(sv);
  }
  spike_nz_.clear();

  // ---- 6. Eliminate the detached row with row operations against the
  // triangular part, walking the entries in elimination order (a min-heap
  // on order_pos_; fill lands strictly later in the order).  The operations
  // become one row eta; the updated last-column entry is the new diagonal.
  auto heap_less = [this](std::uint32_t a, std::uint32_t b) {
    return order_pos_[a] > order_pos_[b];  // min-heap on order position
  };
  std::make_heap(elim_heap_.begin(), elim_heap_.end(), heap_less);
  RowEta eta;
  eta.step = t;
  while (!elim_heap_.empty()) {
    std::pop_heap(elim_heap_.begin(), elim_heap_.end(), heap_less);
    const std::uint32_t c = elim_heap_.back();
    elim_heap_.pop_back();
    const double rv = elim_[c];
    elim_[c] = 0.0;
    elim_flag_[c] = 0;
    if (rv == 0.0) continue;
    const double mu = rv / diag_[c];
    if (!std::isfinite(mu) || std::abs(mu) > kFtGrowthLimit) {
      // Unstable elimination: bail out and clean the scratch state.
      for (const std::uint32_t q : elim_heap_) {
        elim_[q] = 0.0;
        elim_flag_[q] = 0;
      }
      elim_heap_.clear();
      return false;
    }
    eta.src.push_back(c);
    eta.mult.push_back(mu);
    const auto& rc = ucols_[c];
    const auto& rvv = uvals_[c];
    for (std::size_t q = 0; q < rc.size(); ++q) {
      const std::uint32_t cj = rc[q];
      if (cj == leave_pos) {
        dval -= mu * rvv[q];
        continue;
      }
      const std::uint32_t cstep = step_of_col_[cj];
      if (!elim_flag_[cstep]) {
        elim_flag_[cstep] = 1;
        elim_[cstep] = 0.0;
        elim_heap_.push_back(cstep);
        std::push_heap(elim_heap_.begin(), elim_heap_.end(), heap_less);
      }
      elim_[cstep] -= mu * rvv[q];
    }
  }
  if (std::abs(dval) < kUpdateTol || !std::isfinite(dval)) return false;
  diag_[t] = dval;
  if (!eta.src.empty()) ft_etas_.push_back(std::move(eta));
  ++updates_;
  return true;
}

std::size_t BasisLu::factor_nonzeros() const {
  std::size_t nnz = m_;  // U diagonal
  for (std::size_t k = 0; k < m_; ++k) nnz += lrows_[k].size() + ucols_[k].size();
  for (const RowEta& e : ft_etas_) nnz += e.src.size();
  return nnz;
}

}  // namespace bt
