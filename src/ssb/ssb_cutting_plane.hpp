#pragma once

// Cutting-plane solver for the steady-state broadcast LP (program (2)).
//
// Projecting the commodity variables x^{u,v}_w out of program (2) via
// max-flow/min-cut duality leaves a compact master LP over the arc loads n_e
// and the throughput TP:
//
//   maximize TP
//   s.t.  sum_{e in out(u)} T_e n_e <= 1        (one-port emission)
//         sum_{e in in(u)}  T_e n_e <= 1        (one-port reception)
//         sum_{e in C} n_e >= TP                (every source->w cut C)
//
// (under the unidirectional port model the two port rows merge into one
// combined row per node).  Cut constraints are generated lazily: solve the
// master over the current pool, run Dinic from the source to every
// destination under capacities n*, and add the min cuts of violated
// destinations.  On convergence the master value and min_w maxflow(n*)
// agree, which certifies optimality (both a feasible primal of the
// projection and a feasible multi-commodity flow of the original program
// exist at that value).
//
// The master runs *incrementally*: one IncrementalSimplex stands across
// separation rounds, every violated cut is appended as a row (which keeps
// the standing basis dual feasible -- the new slack is basic and the old
// duals still price every column), and reoptimize_dual() restores primal
// feasibility with a handful of dual pivots instead of re-solving from the
// slack basis.
//
// Degeneracy is tamed lexicographically: each round first solves the pure
// master for the throughput value TP_b only, then re-solves with TP pinned
// at TP_b minimizing a tie-broken weighted load.  The load-minimal vertex
// is generically unique, so the loads fed to the separation oracle -- and
// with them the whole cut trajectory -- are identical however the master
// is re-optimized.  The reported throughput is the *unpenalized* TP_b
// (matching the exact rational optimum of the program; an earlier version
// folded a 1e-6 load penalty into the reported value).  Final polish
// rounds on the same standing masters tighten the certificate to 3e-10
// relative, and the reported throughput is rounded to the certificate's
// resolution (~6e-11 relative), so a warm re-plan and a fresh solve of
// the same platform report the same throughput even when degenerate
// min-cut ties let their pools differ in equivalent cuts.

#include "lp/simplex.hpp"
#include "platform/platform.hpp"
#include "ssb/ssb_options.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

/// Shared fields (tolerance, port_model, kernel timing, pool) live in
/// SsbSolveOptions so planner sessions configure both SSB masters
/// uniformly.
struct SsbCuttingPlaneOptions : SsbSolveOptions {
  /// Safety cap, applied to each of the two separation loops independently
  /// (main loop: every non-final round adds >= 1 new cut; polish loop:
  /// usually a few rounds tightening the certificate to 3e-10 relative).
  /// SsbSolution::separation_rounds counts both loops.
  std::size_t max_rounds = 400;
};

/// Solve the SSB program by lazy cut generation.  Throws bt::Error if the
/// master LP fails or the round cap is hit without convergence.
SsbSolution solve_ssb_cutting_plane(const Platform& platform,
                                    const SsbCuttingPlaneOptions& options = {});

}  // namespace bt
