#include "ssb/ssb_cutting_plane.hpp"

#include "ssb/planner_session.hpp"

namespace bt {

// Batch facade: one throwaway PlannerSession per call.  The session's
// cutting-plane path (ssb/planner_session.cpp) is the former body of this
// file -- the standing incremental masters, the lexicographic two-master
// rounds, the cut pool, the polish rounds -- so batch callers and
// long-lived planner sessions exercise the exact same solver.
SsbSolution solve_ssb_cutting_plane(const Platform& platform,
                                    const SsbCuttingPlaneOptions& options) {
  PlannerSessionOptions session_options;
  session_options.cutting = options;
  PlannerSession session(platform, session_options);
  return session.solve();
}

}  // namespace bt
