#pragma once

// Shared solve options of the SSB optimum masters.
//
// Both standing masters -- the cutting-plane value/stable pair and the
// column-generation packing master -- are configured from the same base so
// a PlannerSession (planner_session.hpp) can set tolerances, the port
// model, kernel timing and the oracle pool once and have the two masters
// agree on them.  The derived structs add the solver-specific fields.  The
// masters' LP pricing rules are fixed per master in PlannerSession.

#include "lp/simplex.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

class ThreadPool;

struct SsbSolveOptions {
  /// Convergence tolerance of the outer loop (cut separation / column
  /// pricing); the master LPs themselves solve tighter.
  double tolerance = 1e-7;
  /// Port model of the occupation rows: separate out/in rows per node
  /// (bidirectional one-port) or one combined row (unidirectional).
  PortModel port_model = PortModel::kBidirectional;
  /// Also collect per-call FTRAN/BTRAN wall-clock into
  /// SsbSolution::lp_stats (the reach counters are always collected).
  bool master_kernel_timing = false;
  /// Worker pool for the parallel oracle phases (per-destination max-flow
  /// separation, pricing/column rebuild).  nullptr means the process-wide
  /// global_thread_pool(); point at a 1-thread pool to force the serial
  /// path.  Either way the solve is bitwise-identical -- the oracles write
  /// destination-/slot-indexed results and reduce them in serial order, so
  /// the pool width only changes wall-clock (see util/thread_pool.hpp).
  ThreadPool* pool = nullptr;
};

}  // namespace bt
