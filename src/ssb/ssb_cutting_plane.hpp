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
// The master runs *incrementally* by default: one IncrementalSimplex stands
// across separation rounds, every violated cut is appended as a row (which
// keeps the standing basis dual feasible -- the new slack is basic and the
// old duals still price every column), and reoptimize_dual() restores
// primal feasibility with a handful of dual pivots instead of re-solving
// from the slack basis.  The rebuild-every-round path
// (SsbCuttingPlaneOptions::incremental_master = false) is the same cold
// solve the final polish runs; it benchmarks the incremental master and
// pins its bitwise agreement.
//
// Degeneracy is tamed lexicographically: each round first solves the pure
// master for the throughput value TP_b only, then re-solves with TP pinned
// at TP_b minimizing a tie-broken weighted load.  The load-minimal vertex
// is generically unique, so the loads fed to the separation oracle -- and
// with them the whole cut trajectory -- are identical however the master
// is re-optimized.  The reported throughput is the *unpenalized* TP_b
// (matching the exact rational optimum of the program; the pre-PR-3 code
// folded a 1e-6 load penalty into the reported value).  A final polish
// pass re-derives value and loads with cold solves over the converged
// (sorted) pool and rounds the reported throughput to the certificate's
// resolution (~6e-11 relative), so the incremental and rebuild paths
// report bitwise-identical throughput even when degenerate min-cut ties
// let their pools differ in equivalent cuts.

#include "lp/simplex.hpp"
#include "platform/platform.hpp"
#include "ssb/ssb_options.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

/// Shared fields (tolerance, port_model, kernel timing, pool) live in
/// SsbSolveOptions so planner sessions configure both SSB masters
/// uniformly.
struct SsbCuttingPlaneOptions : SsbSolveOptions {
  /// Keep the value and stable masters alive across separation rounds
  /// (IncrementalSimplex: appended cut rows, dual re-optimization).  When
  /// false, every round solves both masters cold over the whole pool --
  /// the polish path's solve -- which benchmarks the incremental master
  /// and must report a bitwise-identical throughput.
  bool incremental_master = true;
  /// Safety cap, applied to each of the two separation loops independently
  /// (main loop: every non-final round adds >= 1 new cut; polish loop:
  /// usually 1-2 rounds re-deriving the reported value with cold solves).
  /// SsbSolution::separation_rounds counts both loops.
  std::size_t max_rounds = 400;
  /// Anti-degeneracy stabilization: when positive, every round runs the
  /// lexicographic second stage (minimize tie-broken weighted load subject
  /// to TP >= TP_b - eps) and separates on its unique stable vertex.
  /// Without it the pure master ping-pongs between optimal vertices and
  /// the separation needs hundreds of rounds beyond ~40 nodes; with it,
  /// paper-size platforms converge in ~10.  The stabilization only steers
  /// the *search*: the reported throughput is always the unpenalized
  /// master value.  Set to 0 to disable (pure master throughout).  The
  /// magnitude is otherwise ignored -- the second stage minimizes the
  /// weighted load outright, so scaling its objective cannot change the
  /// vertex; the field stays a double for compatibility with the pre-PR-3
  /// objective-penalty options.
  double load_penalty = 1e-6;
};

/// Solve the SSB program by lazy cut generation.  Throws bt::Error if the
/// master LP fails or the round cap is hit without convergence.
SsbSolution solve_ssb_cutting_plane(const Platform& platform,
                                    const SsbCuttingPlaneOptions& options = {});

}  // namespace bt
