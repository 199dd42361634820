#pragma once

// PlannerSession: the long-lived, session-oriented core of the broadcast
// planner.
//
// The batch solvers (ssb_cutting_plane.hpp, ssb_column_generation.hpp)
// historically rebuilt the world per call; everything incremental built
// since -- standing IncrementalSimplex masters, Forrest-Tomlin updates,
// the cut and column pools, exported tree columns -- is exactly what an
// *online* planner needs.  A PlannerSession owns one platform together
// with all of that warm optimization state and exposes an explicit
// lifecycle:
//
//   load (construct) -> solve() -> query (throughput / edge loads) ->
//   mutate (set_link_cost / scale_link_time / remove_link / add_node) ->
//   re-solve (the next solve() call is a warm delta re-plan)
//
// Solver state held across calls:
//
//  * Cutting plane: the deduplicated cut pool plus the standing value and
//    stable masters (see ssb_cutting_plane.hpp for the lexicographic
//    two-master scheme).  Platform deltas are translated into row/column
//    appends on the standing masters -- a changed link time "kills" the
//    arc's column with an appended  n_e <= 0  row and adds a replacement
//    column carrying the new port-row coefficients (cut rows are
//    time-free, so the replacement only re-enters the pooled cuts that
//    contain the arc); a removed link just kills its column.  Both keep
//    the standing basis dual feasible, so the next solve() re-converges
//    with a handful of dual pivots plus a short separation tail instead
//    of a cold solve.  There is one cutting-plane path: a first solve, a
//    warm re-plan, solve_cold()'s fresh session and the batch facade all
//    run their separation and polish rounds on these masters.  A
//    differential test pins warm == cold to <= 1e-9 relative throughput.
//
//  * Column generation: the tree-column pool.  Mutations re-seed the
//    packing master from the pooled trees (minus any tree over a removed
//    arc, with occupation coefficients refreshed from the current link
//    times) and only the pricing gap is closed -- the pool-seeded re-solve
//    of the ROADMAP.
//
//  * Schedule synthesis is not session state: a plan's executable schedule
//    is synthesize_schedule(session.platform(), session.solve()), with the
//    cutting options' port model and pool (sched/orchestrate.hpp).  It
//    decomposes the plan's edge loads -- or adopts a heuristic-tier plan's
//    tree -- so it never ships more over an arc than the plan's load.  The
//    service stores the newest one per source.
//
// add_node is the structural fallback: pooled cuts are no longer
// source->w cuts of the grown graph and pooled trees no longer span, so
// the session resets its solver state and the next solve() is cold (by
// design -- the delta machinery covers the *numeric* mutations).
//
// Error rollback: if a solve fails (numerical breakdown that even the
// rebuild-from-pool retry cannot repair, a round/column cap, a platform
// disconnected by removals), the standing masters are discarded before
// the error propagates, the pools are kept, and the session stays usable:
// the next solve() rebuilds from the pools instead of continuing from an
// indeterminate master.
//
// A PlannerSession is NOT internally synchronized; the service layer
// (service/planner_service.hpp) wraps sessions in a many-readers /
// one-writer guard.

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "platform/platform.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

struct PlannerSessionOptions {
  /// Options of the standing cutting-plane masters (the TP* reference
  /// path; solve()).
  SsbCuttingPlaneOptions cutting;
  /// Options of the packing master (solve_packing()).
  SsbColumnGenOptions colgen;
};

/// Session diagnostics: how queries were answered and how mutations were
/// absorbed.  LP-engine-level detail (pivots, reach fractions, appended
/// rows/columns, rhs updates) rides SsbSolution::lp_stats of the solutions
/// returned by solve()/solve_packing().
struct PlannerSessionStats {
  std::uint64_t cutting_solves = 0;   ///< solve() runs that did LP work
  std::uint64_t warm_resolves = 0;    ///< ... continuing standing masters
  std::uint64_t packing_solves = 0;   ///< solve_packing() runs with LP work
  std::uint64_t mutations = 0;        ///< platform deltas applied
  std::uint64_t kill_rows = 0;        ///< arc columns retired by n_e <= 0 rows
  std::uint64_t replacement_columns = 0;  ///< arc columns re-entered
  std::uint64_t master_rebuilds = 0;  ///< breakdown rebuilds from the pool
  std::uint64_t rollbacks = 0;        ///< failed solves that reset masters
  std::uint64_t stable_stalls = 0;    ///< stable-master stalls downgraded to value loads
  std::uint64_t heuristic_plans = 0;  ///< solve_laddered answers from the heuristic rung
  std::uint64_t budget_exhausts = 0;  ///< solves aborted by a ladder deadline
};

/// Deadline / degradation policy of solve_laddered().  The ladder runs
///
///   warm/cold LP solve (kExact) -> rollback + pool-rebuild LP solve
///   (kRebuild) -> LP-load-priced single arborescence (kHeuristic)
///
/// falling one rung per failure.  The pivot budget bounds the LP rungs: a
/// solve whose cumulative master pivots reach `pivot_budget` aborts at the
/// next separation-round boundary and the ladder drops straight to the
/// heuristic rung (a rebuild would only burn the budget again); any other
/// failure tries the rebuild rung first.  The budget is checked between
/// rounds, so the first round always completes -- it is a deadline, not a
/// starvation knob -- and it is deterministic (pivot counts are bitwise
/// width-invariant).
struct LadderOptions {
  std::size_t pivot_budget = 0;   ///< 0 = unlimited
  bool allow_heuristic = true;    ///< permit the kHeuristic rung (else rethrow)
};

/// One link of a node joining the platform (add_node).
struct SessionLink {
  NodeId peer = 0;
  LinkCost cost;
};

/// The grown platform of an add_node delta: `platform` plus one node wired
/// by the given incoming (peer -> new) and outgoing (new -> peer) links,
/// with per-node overheads preserved (0 for the new node).  Arc ids of the
/// old platform are stable; the new arcs follow, in-links first.  Shared by
/// PlannerSession::add_node and the service layer (which must grow its base
/// platform and every warm session consistently).
Platform grow_platform(const Platform& platform, const std::vector<SessionLink>& in_links,
                       const std::vector<SessionLink>& out_links);

/// Id remap of a shrink_platform call: old node/arc id -> new id, with
/// Digraph::npos for the removed node and its incident arcs.  Surviving ids
/// keep their relative order (they are compacted, not permuted).
struct ShrinkRemap {
  std::vector<NodeId> node_map;
  std::vector<EdgeId> edge_map;
};

/// The shrunk platform of a node-leave delta: `platform` minus `node` and
/// every arc touching it, per-node overheads preserved.  The mirror of
/// grow_platform, shared by the service layer's remove_node.  Requires node
/// != source and at least three nodes; throws (via the Platform
/// constructor) if the remaining platform cannot broadcast.
Platform shrink_platform(const Platform& platform, NodeId node, ShrinkRemap* remap = nullptr);

class PlannerSession {
 public:
  /// Load: the session copies the platform and seeds its pools.  Throws
  /// bt::Error on platforms with fewer than two nodes.
  explicit PlannerSession(Platform platform, PlannerSessionOptions options = {});

  PlannerSession(PlannerSession&&) noexcept = default;
  PlannerSession& operator=(PlannerSession&&) noexcept = default;

  const Platform& platform() const { return platform_; }
  const PlannerSessionOptions& options() const { return options_; }
  bool link_removed(EdgeId e) const;
  const PlannerSessionStats& stats() const { return stats_; }

  /// Solve (or warm re-solve) the cutting-plane masters for TP* and the
  /// stable edge loads.  Cached until the next mutation.  On failure the
  /// standing masters roll back (see header comment) and the error
  /// propagates; the session remains usable.
  const SsbSolution& solve();

  /// solve() behind the degradation ladder (see LadderOptions): never fails
  /// on a recoverable solver fault or an exhausted budget as long as the
  /// platform can broadcast at all -- it degrades instead, and the answer's
  /// SsbSolution::tier / quality_gap say how far.  A heuristic-tier answer
  /// caches like any other solution (the next mutation clears it) and
  /// carries its tree in tree_columns, so synthesize_schedule adopts that
  /// tree instead of decomposing loads.
  const SsbSolution& solve_laddered(const LadderOptions& ladder = {});

  /// TP* of the current platform (solve() + one field).
  double throughput() { return solve().throughput; }

  /// Solve (or pool-seeded re-solve) the packing master: TP* plus the
  /// explicit multi-tree schedule columns.  Cached until the next mutation.
  const SsbPackingSolution& solve_packing();

  // ---- mutation layer -----------------------------------------------------

  /// Replace arc e's affine cost (degraded or re-measured link).  Also
  /// restores a removed link.  Standing masters absorb this as a warm
  /// kill-and-replace delta.
  void set_link_cost(EdgeId e, LinkCost cost);

  /// Scale arc e's cost (alpha and beta) by `factor` -- "link (u,v)
  /// degraded 30%" is factor 1/0.7 on its arcs.  Requires factor > 0.
  void scale_link_time(EdgeId e, double factor);

  /// Remove arc e: its column is killed in the standing masters and pooled
  /// trees over it are dropped.  Arc ids stay stable (the arc remains in
  /// the graph, pinned to zero load).  If removals disconnect the platform
  /// the next solve() throws; restore the link with set_link_cost.
  void remove_link(EdgeId e);

  /// Grow the platform by one node with the given incoming (peer -> new)
  /// and outgoing (new -> peer) links.  Structural fallback: resets all
  /// standing solver state; the next solve() is cold.  Returns the new
  /// node's id.  Throws if the grown platform cannot broadcast.
  NodeId add_node(const std::vector<SessionLink>& in_links,
                  const std::vector<SessionLink>& out_links);

  /// Reference cold solve of the *current* (mutated) platform through a
  /// fresh throwaway session on the same options -- what a batch caller
  /// would compute from scratch.  Differential tests and the service bench
  /// compare warm re-plans against it.
  SsbSolution solve_cold() const;

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// LP pricing of each master.  The cutting-plane value and stable
  /// masters re-optimize in a handful of pivots per lexicographic round,
  /// where the candidate-list Dantzig scan wins and reference weights never
  /// amortize their pivot-row cost; the packing master's long pricing runs
  /// profit from Devex weights and dual steepest edge.
  static constexpr PricingRule kCuttingPricing = PricingRule::kDantzig;
  static constexpr DualRowRule kCuttingDualRowRule = DualRowRule::kDevex;
  static constexpr PricingRule kPackingPricing = PricingRule::kDevex;
  static constexpr DualRowRule kPackingDualRowRule = DualRowRule::kSteepestEdge;

  // cutting-plane internals
  double stabilization_weight(EdgeId e) const;
  SimplexOptions cutting_master_options() const;
  SimplexOptions stable_master_options() const;
  std::vector<LpTerm> cut_row(const std::vector<EdgeId>& cut) const;
  const std::vector<EdgeId>* add_cut(std::vector<EdgeId> cut);
  LpProblem build_cutting_master(bool stable, double tp_floor);
  void reset_cutting_state();
  void run_cutting_solve();
  void kill_arc_column(EdgeId e);
  void replace_arc_column(EdgeId e);

  // packing internals
  void reset_packing_state();
  void run_packing_solve();
  void drop_pool_trees_containing(EdgeId e);

  // ladder internals
  void check_solve_budget(const SsbSolution& solution);
  SsbSolution heuristic_solution() const;

  void note_mutation();

  Platform platform_;
  PlannerSessionOptions options_;
  std::vector<char> removed_;
  PlannerSessionStats stats_;

  // ---- cutting-plane state ----
  /// Cut pool, deduplicated by sorted arc-id list.  std::set iteration is
  /// content-sorted, so any master built from the pool depends only on the
  /// pool's *content*, not on the order cuts were discovered in.
  std::set<std::vector<EdgeId>> cut_pool_;
  std::unique_ptr<IncrementalSimplex> value_master_, stable_master_;
  /// Arc -> live column index in the standing masters (identity until a
  /// kill-and-replace delta retires a column), and whether the arc still
  /// has a live column at all.
  std::vector<std::size_t> var_of_arc_;
  std::vector<char> var_alive_;
  std::size_t tp_var_ = 0;
  /// Value-master port-row index of each node's out/in port (the stable
  /// master's rows sit at +1 past its TP-floor row).  Under the
  /// unidirectional model both arrays hold the node's combined row.
  std::vector<std::size_t> out_row_, in_row_;
  /// Pool cuts in standing-master row order, with their value-master row.
  struct CutEntry {
    const std::vector<EdgeId>* cut;
    std::size_t value_row;
  };
  std::vector<CutEntry> master_cuts_;
  bool cutting_dirty_ = true;
  SsbSolution cutting_solution_;

  // ---- packing state ----
  std::set<std::vector<EdgeId>> tree_seen_;          ///< dedup keys (sorted)
  std::vector<std::vector<EdgeId>> tree_pool_;       ///< discovery order
  bool packing_dirty_ = true;
  SsbPackingSolution packing_solution_;

  // ---- ladder state ----
  /// Pivot budget of the solve_laddered call in flight (0 = unlimited
  /// outside one); checked by run_cutting_solve at round boundaries.
  std::size_t pivot_budget_ = 0;
  bool budget_hit_ = false;
  /// The most recent LP-optimal answer: prices the heuristic rung's
  /// arborescence and anchors quality_gap.
  double last_good_tp_ = 0.0;
  std::vector<double> last_good_loads_;
};

}  // namespace bt
