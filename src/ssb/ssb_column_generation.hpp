#pragma once

// Column-generation solver for the steady-state broadcast optimum, based on
// the arborescence-packing view of the MTP problem (Edmonds' branching
// theorem, the structural result behind [5, 6]):
//
//   maximize  sum_T lambda_T                        (T: spanning arborescence)
//   s.t.      sum_T lambda_T * out_u(T) <= 1        (one-port emission,  all u)
//             sum_T lambda_T * in_u(T)  <= 1        (one-port reception, all u)
//             lambda >= 0
//   where  out_u(T) = sum of T_e over T's arcs leaving u, in_u(T) likewise.
//
// The master LP has only 2p rows; columns (arborescences) are generated
// lazily.  Given master duals y^out, y^in, the most violated column is the
// *minimum-weight spanning arborescence* under arc prices
// w_e = T_e * (y^out_{from(e)} + y^in_{to(e)}), found with Chu-Liu/Edmonds.
// Optimality is reached when that minimum weight is >= 1.
//
// Besides the optimal throughput TP* and edge loads n_e = sum_{T ∋ e}
// lambda_T, this solver yields the explicit *multi-tree schedule* -- the set
// of spanning trees and rates achieving TP* -- which the paper describes as
// the "very complicated" step it deliberately skips.  The cutting-plane
// solver (ssb_cutting_plane.hpp) computes the same value from the arc loads
// alone; the tree columns make this solver the one whose answer the
// multi-tree schedule executes directly (README, "From loads to
// schedules").

#include <vector>

#include "lp/simplex.hpp"
#include "platform/platform.hpp"
#include "ssb/ssb_options.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

// PackedTree (one tree of the optimal fractional packing) lives in
// ssb_solution.hpp so every solver's result can carry tree columns.

struct SsbPackingSolution : SsbSolution {
  /// The multi-tree schedule: trees with positive rate; sum of rates = TP*.
  /// Identical to SsbSolution::tree_columns (kept as a named field for the
  /// packing-specific callers; the base field is what downstream schedule
  /// synthesis consumes uniformly across solvers).
  std::vector<PackedTree> trees;
};

/// Shared fields (tolerance, port_model, kernel timing, pool) live in
/// SsbSolveOptions so planner sessions configure both SSB masters
/// uniformly.  The master is one standing IncrementalSimplex that gains a
/// column per pricing round.
struct SsbColumnGenOptions : SsbSolveOptions {
  std::size_t max_columns = 5000;
  /// Wentges dual smoothing for the pricing oracle: price with
  /// y_hat = alpha * y_prev + (1 - alpha) * y instead of the raw master
  /// duals, which oscillate heavily on the degenerate packing master and
  /// otherwise drive hundreds of near-redundant pricing rounds at scale
  /// (2-12x fewer rounds at 80 nodes).  When the smoothed duals mis-price
  /// (no improving column), the round re-prices with the exact duals, so
  /// convergence and optimality are unaffected.  0 disables.
  double dual_smoothing = 0.5;
  /// Publish the positive-rate columns through the base class's
  /// SsbSolution::tree_columns (on by default), so colgen-sourced schedule
  /// synthesis -- and planner sessions seeding re-solves from the column
  /// pool -- skip the edge-load decomposition heuristic entirely (the
  /// master's columns are an exact decomposition).  Disable to measure the
  /// decomposer on colgen loads.
  bool export_tree_columns = true;
};

/// Solve the SSB program by arborescence column generation.  Throws
/// bt::Error if the master LP fails or the column cap is hit.
SsbPackingSolution solve_ssb_column_generation(const Platform& platform,
                                               const SsbColumnGenOptions& options = {});

/// Production entry point used by the experiment harness: currently the
/// column-generation solver.
SsbPackingSolution solve_ssb(const Platform& platform);

}  // namespace bt
