#include "ssb/planner_session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "flow/maxflow.hpp"
#include "graph/min_arborescence.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bt {

namespace {

/// Relative spread of the per-arc stabilization weights.  Minimizing the
/// plain serialized load still leaves ties between load patterns; distinct
/// per-arc weights make the load-minimal vertex of each round generically
/// unique, so the separation trajectory (and with it the whole solver) is
/// independent of how the master happens to be re-optimized.
constexpr double kWeightTieBreak = 0.25;

/// Price of a removed arc in the packing pricing oracle: any arborescence
/// forced through one instantly fails the reduced-cost test (weight >= 1),
/// so removed arcs never enter the column pool and the oracle's "no
/// improving column" verdict stays an optimality certificate for the
/// surviving platform.
constexpr double kRemovedArcPrice = 1e30;

// ---- packing column helpers ------------------------------------------------

/// Column coefficients of a tree: its serialized occupation of every node's
/// out and in port per unit rate.
struct TreeColumn {
  std::vector<EdgeId> edges;
  std::vector<double> out_time;  ///< per node
  std::vector<double> in_time;   ///< per node
};

TreeColumn make_column(const Platform& platform, std::vector<EdgeId> edges) {
  TreeColumn column;
  column.out_time.assign(platform.num_nodes(), 0.0);
  column.in_time.assign(platform.num_nodes(), 0.0);
  for (EdgeId e : edges) {
    const double t = platform.edge_time(e);
    column.out_time[platform.graph().from(e)] += t;
    column.in_time[platform.graph().to(e)] += t;
  }
  column.edges = std::move(edges);
  return column;
}

// Packing master row layout (both solve paths): under the bidirectional
// one-port model, out-port of node u = row 2u, in-port = row 2u + 1; under
// the unidirectional model one combined row u per node.  Rows exist even for
// nodes without arcs so the indexing is stable as columns arrive.
std::vector<LpTerm> master_terms(const TreeColumn& column, std::size_t p, PortModel model) {
  std::vector<LpTerm> terms;
  if (model == PortModel::kBidirectional) {
    for (NodeId u = 0; u < p; ++u) {
      if (column.out_time[u] != 0.0) terms.push_back({2 * u, column.out_time[u]});
      if (column.in_time[u] != 0.0) terms.push_back({2 * u + 1, column.in_time[u]});
    }
  } else {
    for (NodeId u = 0; u < p; ++u) {
      const double occupation = column.out_time[u] + column.in_time[u];
      if (occupation != 0.0) terms.push_back({u, occupation});
    }
  }
  return terms;
}

}  // namespace

// ---- lifecycle --------------------------------------------------------------

PlannerSession::PlannerSession(Platform platform, PlannerSessionOptions options)
    : platform_(std::move(platform)), options_(std::move(options)) {
  BT_REQUIRE(platform_.num_nodes() >= 2, "PlannerSession: need at least two nodes");
  removed_.assign(platform_.num_edges(), 0);
  reset_cutting_state();
  reset_packing_state();
}

bool PlannerSession::link_removed(EdgeId e) const {
  BT_REQUIRE(e < removed_.size(), "PlannerSession::link_removed: arc out of range");
  return removed_[e] != 0;
}

// ---- cutting-plane internals ------------------------------------------------

double PlannerSession::stabilization_weight(EdgeId e) const {
  // Uniformly spaced fractions maximize the minimum pairwise gap, keeping
  // every alternative-optimum gap far above the master tolerance.
  const double frac = static_cast<double>(e) / static_cast<double>(platform_.num_edges());
  return platform_.edge_time(e) * (1.0 + kWeightTieBreak * frac);
}

/// Master tolerance: tighter than the solver default so the tie-broken
/// stabilization weights resolve alternative optima (vertex gaps are
/// ~T_e * kWeightTieBreak / m, orders of magnitude above this).  Pricing
/// is the cutting-plane constant, kernel timing comes from the options.
SimplexOptions PlannerSession::cutting_master_options() const {
  SimplexOptions lp;
  lp.tolerance = 1e-10;
  lp.pricing = kCuttingPricing;
  lp.dual_row_rule = kCuttingDualRowRule;
  lp.collect_kernel_timing = options_.cutting.master_kernel_timing;
  return lp;
}

/// The stable (lexicographic) master gets a flat pivot budget instead of
/// the engine's auto cap (60 * (rows + cols)).  Converging stable solves
/// use a few thousand pivots at most -- warm rounds re-optimize in a
/// handful -- so 100k is >10x headroom; but on the degenerate optimal face
/// at n >= ~500 the auto cap grows to millions and a stall would grind for
/// minutes before run_cutting_solve's downgrade path can fire.
SimplexOptions PlannerSession::stable_master_options() const {
  SimplexOptions lp = cutting_master_options();
  lp.max_iterations = 100000;
  return lp;
}

std::vector<LpTerm> PlannerSession::cut_row(const std::vector<EdgeId>& cut) const {
  // TP - sum_{e in C} n_e <= 0: cut rows keep non-negative rhs, so a fresh
  // value master starts from the feasible all-slack basis.  Arcs are
  // addressed through var_of_arc_ (replacement columns after
  // kill-and-replace deltas); dead arcs keep their pinned-to-zero column in
  // the row, which leaves the inequality valid.  A master build always
  // sees the identity mapping: the value build resets it, and the stable
  // master is only built in the round its value master was (re)built.
  std::vector<LpTerm> row;
  row.reserve(cut.size() + 1);
  row.push_back({tp_var_, 1.0});
  for (EdgeId e : cut) row.push_back({var_of_arc_[e], -1.0});
  return row;
}

const std::vector<EdgeId>* PlannerSession::add_cut(std::vector<EdgeId> cut) {
  std::sort(cut.begin(), cut.end());
  const auto inserted = cut_pool_.insert(std::move(cut));
  return inserted.second ? &*inserted.first : nullptr;
}

LpProblem PlannerSession::build_cutting_master(bool stable, double tp_floor) {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  const PortModel model = options_.cutting.port_model;

  // The value master records its layout: the build resets the
  // kill-and-replace mapping, so the fresh master is identity-mapped again
  // (removed arcs stay dead -- their pin rows are part of the build).  The
  // stable master's rows sit one past it (TP-floor row 0).
  const bool record = !stable;
  if (record) {
    var_of_arc_.resize(m);
    var_alive_.resize(m);
    for (EdgeId e = 0; e < m; ++e) {
      var_of_arc_[e] = e;
      var_alive_[e] = removed_[e] ? 0 : 1;
    }
    out_row_.assign(g.num_nodes(), kNoRow);
    in_row_.assign(g.num_nodes(), kNoRow);
    master_cuts_.clear();
  }

  // Both masters share the variable layout n_e = e, TP = m (the incremental
  // engines rely on it when appending cut rows), the port rows and the pool
  // cut rows.  They differ in objective and in one extra row:
  //
  //  * value master:  maximize TP -- the unpenalized master.  Its optimal
  //    *value* TP_b is what the solver reports; its vertex may wander the
  //    degenerate optimal face and is never used.
  //  * stable master: minimize sum_e w_e n_e subject to TP >= TP_b - eps
  //    (lexicographic second stage, row 0).  Its vertex is generically
  //    unique thanks to the tie-broken weights, so the loads fed to the
  //    separation oracle -- and hence the cut trajectory -- are stable.
  LpProblem lp(Objective::kMaximize);
  for (EdgeId e = 0; e < m; ++e) {
    const double weight = stable ? -stabilization_weight(e) : 0.0;
    lp.add_variable(weight, "n" + std::to_string(e));
  }
  lp.add_variable(stable ? 0.0 : 1.0, "TP");

  std::size_t row = 0;
  if (stable) {
    lp.add_constraint({{tp_var_, 1.0}}, RowSense::kGreaterEqual, tp_floor);
    ++row;
  }
  // Port rows: the same emission as ssb_port_rows.hpp (out row then in row
  // per node, skipping empty ports), inlined so the row indices can be
  // recorded for the replacement columns of later link-cost deltas.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (model == PortModel::kBidirectional) {
      std::vector<LpTerm> out_terms, in_terms;
      for (EdgeId e : g.out_edges(u)) out_terms.push_back({e, platform_.edge_time(e)});
      for (EdgeId e : g.in_edges(u)) in_terms.push_back({e, platform_.edge_time(e)});
      if (!out_terms.empty()) {
        lp.add_constraint(out_terms, RowSense::kLessEqual, 1.0);
        if (record) out_row_[u] = row;
        ++row;
      }
      if (!in_terms.empty()) {
        lp.add_constraint(in_terms, RowSense::kLessEqual, 1.0);
        if (record) in_row_[u] = row;
        ++row;
      }
    } else {
      std::vector<LpTerm> terms;
      for (EdgeId e : g.out_edges(u)) terms.push_back({e, platform_.edge_time(e)});
      for (EdgeId e : g.in_edges(u)) terms.push_back({e, platform_.edge_time(e)});
      if (!terms.empty()) {
        lp.add_constraint(terms, RowSense::kLessEqual, 1.0);
        if (record) {
          out_row_[u] = row;
          in_row_[u] = row;
        }
        ++row;
      }
    }
  }
  for (const auto& cut : cut_pool_) {
    lp.add_constraint(cut_row(cut), RowSense::kLessEqual, 0.0);
    if (record) master_cuts_.push_back({&cut, row});
    ++row;
  }
  // Removed arcs keep their variable (the layout is arc-indexed) but are
  // pinned to zero load.
  for (EdgeId e = 0; e < m; ++e) {
    if (removed_[e]) lp.add_constraint({{e, 1.0}}, RowSense::kLessEqual, 0.0);
  }
  return lp;
}

void PlannerSession::reset_cutting_state() {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  cut_pool_.clear();
  value_master_.reset();
  stable_master_.reset();
  var_of_arc_.resize(m);
  var_alive_.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    var_of_arc_[e] = e;
    var_alive_[e] = removed_[e] ? 0 : 1;
  }
  tp_var_ = m;
  out_row_.assign(g.num_nodes(), kNoRow);
  in_row_.assign(g.num_nodes(), kNoRow);
  master_cuts_.clear();
  cutting_dirty_ = true;
  cutting_solution_ = SsbSolution{};

  // Seed cuts: the singleton source cut and the singleton destination cuts.
  std::vector<EdgeId> source_cut(g.out_edges(platform_.source()));
  add_cut(std::move(source_cut));
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w == platform_.source()) continue;
    std::vector<EdgeId> dest_cut(g.in_edges(w));
    add_cut(std::move(dest_cut));
  }
}

void PlannerSession::run_cutting_solve() {
  const Digraph& g = platform_.graph();
  const NodeId source = platform_.source();
  const std::size_t p = g.num_nodes();
  const std::size_t m = g.num_edges();
  const SsbCuttingPlaneOptions& options = options_.cutting;
  // Degeneracy at scale (the 1000-node-ceiling item in ROADMAP.md): on the
  // tie-broken optimal face a freshly built stable master can stall
  // through its whole pivot budget.  One sticky downgrade keeps the solve
  // finite, paid at most once per solve: the solve drops stabilization and
  // reports the value master's loads (stable_stalls).  Pivot counts are
  // width-invariant, so every pool width downgrades at the same round and
  // width-determinism is preserved.
  bool stabilize_active = true;

  SsbSolution solution;

  // Separation: per-destination max-flow under capacities `load`; cuts of
  // destinations below `tp - tol` enter the pool (and `new_cuts`, for the
  // standing masters).  Returns whether any *new* cut was added.
  //
  // The oracle fans the destinations out over the worker pool in contiguous
  // chunks, one MaxFlowSolver per chunk (the solver's touched-arc restore
  // path mutates shared state, so instances are single-consumer -- see
  // flow/maxflow.hpp).  Each task writes only its destinations' slots of
  // `sep_results`; the min-flow reduction and the add_cut appends then run
  // serially in destination order.  solve() results depend only on
  // (source, sink, load), so the chunk layout -- and with it the pool
  // width -- changes scheduling only: the cut trajectory, and hence the
  // solution, is bitwise-identical to the serial oracle.  Solvers persist
  // across rounds so the same-capacity restore fast path still applies
  // within each round's chunk.
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();
  std::vector<NodeId> dests;
  dests.reserve(p - 1);
  for (NodeId w = 0; w < p; ++w) {
    if (w != source) dests.push_back(w);
  }
  const ChunkSplit split(dests.size(), pool.num_threads());
  std::vector<std::unique_ptr<MaxFlowSolver>> chunk_solver(split.chunks);
  std::vector<MaxFlowResult> chunk_scratch(split.chunks);
  struct DestResult {
    double value = 0.0;
    bool violated = false;
    std::vector<EdgeId> cut;
  };
  std::vector<DestResult> sep_results(dests.size());

  std::vector<const std::vector<EdgeId>*> new_cuts;
  auto separate = [&](const std::vector<double>& load, double tp, double tol,
                      double& min_flow) {
    // Fault hook, counted once per round in this serial section (never
    // inside the parallel fan-out), so the trigger index is width-invariant.
    if (fault_fire(FaultSite::kSeparationOracle)) {
      throw Error("fault injection: separation oracle failure");
    }
    Timer separation_timer;
    parallel_for(pool, split.chunks, [&](std::size_t c) {
      if (chunk_solver[c] == nullptr) chunk_solver[c] = std::make_unique<MaxFlowSolver>(g);
      MaxFlowSolver& solver = *chunk_solver[c];
      MaxFlowResult& flow = chunk_scratch[c];
      for (std::size_t i = split.chunk_begin(c); i < split.chunk_begin(c + 1); ++i) {
        solver.solve(source, dests[i], load, flow);
        DestResult& slot = sep_results[i];
        slot.value = flow.value;
        slot.violated = flow.value < tp - tol;
        if (slot.violated) {
          slot.cut = flow.min_cut_edges;
        } else {
          slot.cut.clear();
        }
      }
    });
    min_flow = std::numeric_limits<double>::infinity();
    new_cuts.clear();
    bool added = false;
    for (DestResult& slot : sep_results) {
      min_flow = std::min(min_flow, slot.value);
      if (slot.violated) {
        if (const std::vector<EdgeId>* cut = add_cut(std::move(slot.cut))) {
          new_cuts.push_back(cut);
          added = true;
        }
      }
    }
    solution.phase_stats.separation_wall_ms += separation_timer.millis();
    return added;
  };
  solution.phase_stats.oracle_threads = pool.num_threads();

  std::vector<double> load(m);
  double master_tp = 0.0;
  double min_flow = 0.0;

  // One separation round on the standing masters: value solve -> TP_b,
  // stable solve -> loads, max-flow separation at tolerance `tol`.
  // Returns true when converged (no new cut and the certificate holds).
  auto round = [&](double tol) {
    // Deadline ladder: between rounds is the only safe abort point (the
    // masters are consistent), and pivot counts are width-invariant, so a
    // pivot-budget abort fires at the same round on every pool width.
    check_solve_budget(solution);
    ++solution.separation_rounds;
    Timer master_timer;

    if (value_master_ == nullptr) {
      value_master_ = std::make_unique<IncrementalSimplex>(build_cutting_master(false, 0.0),
                                                           cutting_master_options());
      // The stable master must share the (re-)recorded row layout; force
      // its rebuild from the same pool later this round.
      stable_master_.reset();
    }
    LpSolution value_sol = value_master_->solve();
    if (value_sol.status != LpStatus::kOptimal) {
      // Numerical breakdown of the standing master (drifted basis the
      // engine could not repair): the pool fully determines the model, so
      // rebuild it and continue incrementally from there.  Fold the
      // replaced instance's lifetime stats in first.
      solution.lp_stats.accumulate(value_master_->engine_stats());
      ++stats_.master_rebuilds;
      value_master_ = std::make_unique<IncrementalSimplex>(build_cutting_master(false, 0.0),
                                                           cutting_master_options());
      stable_master_.reset();
      value_sol = value_master_->solve();
    }
    BT_REQUIRE(value_sol.status == LpStatus::kOptimal,
               "solve_ssb_cutting_plane: value master " + to_string(value_sol.status));
    solution.lp_iterations += value_sol.iterations;
    master_tp = value_sol.x[tp_var_];

    const double eps_lex = 1e-10 * std::max(1.0, master_tp);
    const double tp_floor = master_tp - eps_lex;
    const LpSolution* load_sol = &value_sol;
    LpSolution stable_sol;
    if (stabilize_active) {
      bool fresh = stable_master_ == nullptr;
      if (fresh) {
        stable_master_ = std::make_unique<IncrementalSimplex>(build_cutting_master(true, tp_floor),
                                                              stable_master_options());
      } else {
        stable_master_->set_row_rhs(0, tp_floor);
      }
      stable_sol = stable_master_->solve();
      if (stable_sol.status != LpStatus::kOptimal && !fresh) {
        // Numerical breakdown: rebuild BOTH standing masters from the
        // pool.  The stable master's rows must stay one past the value
        // master's for the kill-and-replace deltas, and the value master
        // may carry append-order cut rows a pool rebuild would not
        // reproduce -- so the pair is rebuilt together (stats folded in
        // first; the value master re-solves from scratch next round).
        solution.lp_stats.accumulate(stable_master_->engine_stats());
        solution.lp_stats.accumulate(value_master_->engine_stats());
        ++stats_.master_rebuilds;
        value_master_ = std::make_unique<IncrementalSimplex>(build_cutting_master(false, 0.0),
                                                             cutting_master_options());
        stable_master_ = std::make_unique<IncrementalSimplex>(build_cutting_master(true, tp_floor),
                                                              stable_master_options());
        stable_sol = stable_master_->solve();
        fresh = true;
      }
      solution.lp_iterations += stable_sol.iterations;
      if (stable_sol.status == LpStatus::kIterationLimit && fresh) {
        // Degenerate stall of a freshly built stable master: it exhausted
        // its pivot budget, so a rebuild cannot help.  Downgrade to the
        // value loads (load_sol already points there) and run the rest of
        // this solve unstabilized; the polish keeps the caller's tolerance
        // below.
        ++solution.stable_stalls;
        ++stats_.stable_stalls;
        stabilize_active = false;
        solution.lp_stats.accumulate(stable_master_->engine_stats());
        stable_master_.reset();
      } else {
        BT_REQUIRE(stable_sol.status == LpStatus::kOptimal,
                   "solve_ssb_cutting_plane: stable master " + to_string(stable_sol.status));
        load_sol = &stable_sol;
      }
    }
    for (EdgeId e = 0; e < m; ++e) {
      load[e] = var_alive_[e] ? std::max(0.0, load_sol->x[var_of_arc_[e]]) : 0.0;
    }
    solution.master_wall_ms += master_timer.millis();

    const bool added = separate(load, master_tp, tol, min_flow);
    for (const std::vector<EdgeId>* cut : new_cuts) {
      const std::size_t value_row =
          value_master_->append_row(cut_row(*cut), RowSense::kLessEqual, 0.0);
      master_cuts_.push_back({cut, value_row});
      if (stable_master_ != nullptr) {
        stable_master_->append_row(cut_row(*cut), RowSense::kLessEqual, 0.0);
      }
    }
    // Converged exactly when no *new* cut exists: every destination whose
    // min-cut value sits below master_tp - tol already has that cut in the
    // pool, so repeating the (deterministic) round cannot make progress
    // and the bracket [min_flow, master_tp] is as tight as this arithmetic
    // gets.  The exit is purely combinatorial -- comparing min_flow
    // against the tolerance here would make the stopping round flip on
    // last-ulp load differences between re-plans of the same platform.
    return !added;
  };

  // ---- Separation loop at the caller's tolerance. ----
  bool converged = false;
  for (std::size_t r = 0; r < options.max_rounds && !converged; ++r) {
    converged = round(options.tolerance);
  }
  BT_REQUIRE(converged,
             "solve_ssb_cutting_plane: separation did not converge within round cap");
  // Removals can sever the source from part of the platform; the LP then
  // caps TP at 0 through an all-removed cut.  Fail with a diagnosis instead
  // of tripping the bad-throughput assert below.
  BT_REQUIRE(master_tp > 1e-12,
             "PlannerSession: platform cannot broadcast (removals cut the source off)");

  // ---- Polish rounds: the standing masters tighten the certificate to
  // 3e-10 relative before the reported value is rounded below.  Without
  // the stabilization stage (a stable-master stall downgraded the solve)
  // the pure master's vertex ping-pong cannot be expected to close a 3e-10
  // gap, so the polish keeps the caller's tolerance there. ----
  converged = false;
  for (std::size_t r = 0; r < options.max_rounds && !converged; ++r) {
    converged = round(stabilize_active ? 3e-10 * std::max(1.0, master_tp) : options.tolerance);
  }
  BT_REQUIRE(converged, "solve_ssb_cutting_plane: polish separation did not converge");

  solution.solved = true;
  // The certificate brackets the optimum: min_flow <= TP* <= master_tp,
  // normally with master_tp - min_flow below the polish tolerance (the lex
  // floor keeps min_flow an eps_lex below the value optimum).  Report the
  // attainable end of the bracket, rounded to 2^-34 relative (~6e-11):
  // the certificate does not support finer digits, and discarding them
  // lets a warm re-plan report the same value as a fresh solve of the same
  // platform even though the two may legitimately pool
  // different-but-equivalent min cuts when the optimal face is degenerate,
  // which perturbs the last ulps of the solved value.
  const double raw = std::min(master_tp, min_flow);
  BT_ASSERT(raw > 0.0 && std::isfinite(raw), "solve_ssb_cutting_plane: bad throughput");
  const double grain = std::ldexp(1.0, std::ilogb(raw) - 34);
  solution.throughput = std::round(raw / grain) * grain;
  solution.edge_load = std::move(load);
  solution.cuts_generated = cut_pool_.size();
  // Replaced masters were folded into lp_stats as they went; fold in the
  // standing masters' lifetime stats (cumulative over the session -- for a
  // batch wrapper the session lives exactly one solve, so this is the
  // per-call record).
  if (value_master_ != nullptr) solution.lp_stats.accumulate(value_master_->engine_stats());
  if (stable_master_ != nullptr) solution.lp_stats.accumulate(stable_master_->engine_stats());
  cutting_solution_ = std::move(solution);
}

const SsbSolution& PlannerSession::solve() {
  if (!cutting_dirty_) return cutting_solution_;
  ++stats_.cutting_solves;
  if (value_master_ != nullptr) ++stats_.warm_resolves;
  try {
    run_cutting_solve();
  } catch (...) {
    // Roll back: a partially re-optimized master is indeterminate, but the
    // pool is append-only and stays valid.  Dropping the masters makes the
    // next solve() rebuild them from the pool, so the session survives the
    // error.
    ++stats_.rollbacks;
    value_master_.reset();
    stable_master_.reset();
    throw;
  }
  cutting_dirty_ = false;
  // run_cutting_solve builds a fresh SsbSolution, so the tier is kExact
  // here; an optimum also re-anchors the heuristic rung's reference.
  last_good_tp_ = cutting_solution_.throughput;
  last_good_loads_ = cutting_solution_.edge_load;
  return cutting_solution_;
}

void PlannerSession::check_solve_budget(const SsbSolution& solution) {
  if (pivot_budget_ == 0 || solution.lp_iterations < pivot_budget_) return;
  budget_hit_ = true;
  ++stats_.budget_exhausts;
  throw Error("PlannerSession: solve budget exhausted (ladder deadline)");
}

/// The heuristic rung: one arborescence priced by the last LP optimum's
/// loads -- arcs the optimum leaned on are cheap, so the tree follows the
/// optimal flow pattern where it can -- rated by its own port occupation
/// (the tree streamed alone saturates its busiest port; rate = 1 / that
/// occupation).  Always a feasible broadcast plan; typically within a few
/// tens of percent of TP* (quality_gap reports the estimate).
SsbSolution PlannerSession::heuristic_solution() const {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  std::vector<double> price(m);
  for (EdgeId e = 0; e < m; ++e) {
    if (removed_[e]) {
      price[e] = kRemovedArcPrice;
      continue;
    }
    const double load = e < last_good_loads_.size() ? last_good_loads_[e] : 0.0;
    price[e] = platform_.edge_time(e) / (1.0 + load);
  }
  const auto tree = min_arborescence(g, platform_.source(), price);
  BT_REQUIRE(tree.found, "PlannerSession: heuristic rung found no spanning arborescence");
  for (EdgeId e : tree.edges) {
    BT_REQUIRE(!removed_[e],
               "PlannerSession: platform cannot broadcast (removals cut the source off)");
  }

  std::vector<double> out_time(g.num_nodes(), 0.0), in_time(g.num_nodes(), 0.0);
  for (EdgeId e : tree.edges) {
    const double t = platform_.edge_time(e);
    out_time[g.from(e)] += t;
    in_time[g.to(e)] += t;
  }
  double max_load = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (options_.cutting.port_model == PortModel::kBidirectional) {
      max_load = std::max({max_load, out_time[u], in_time[u]});
    } else {
      max_load = std::max(max_load, out_time[u] + in_time[u]);
    }
  }
  BT_ASSERT(max_load > 0.0, "PlannerSession: heuristic tree occupies no port");
  const double rate = 1.0 / max_load;

  SsbSolution solution;
  solution.solved = true;
  solution.throughput = rate;
  solution.edge_load.assign(m, 0.0);
  for (EdgeId e : tree.edges) solution.edge_load[e] = rate;
  PackedTree column;
  column.edges = tree.edges;
  column.rate = rate;
  solution.tree_columns.push_back(std::move(column));
  solution.tier = PlanTier::kHeuristic;
  solution.quality_gap =
      last_good_tp_ > 0.0 ? std::max(0.0, (last_good_tp_ - rate) / last_good_tp_) : 0.0;
  return solution;
}

const SsbSolution& PlannerSession::solve_laddered(const LadderOptions& ladder) {
  if (!cutting_dirty_) return cutting_solution_;
  pivot_budget_ = ladder.pivot_budget;
  budget_hit_ = false;
  struct BudgetReset {
    PlannerSession* session;
    ~BudgetReset() { session->pivot_budget_ = 0; }
  } reset{this};

  try {
    return solve();  // rung 0: tier kExact
  } catch (const Error&) {
    // An exhausted budget skips the rebuild rung -- a rebuild is the
    // *expensive* recovery, and would only burn the budget again.
    if (!budget_hit_) {
      try {
        // Rung 1: the rollback above dropped the standing masters but kept
        // the pools, so this solve() rebuilds from pool content.
        solve();
        cutting_solution_.tier = PlanTier::kRebuild;
        return cutting_solution_;
      } catch (const Error&) {
        if (!ladder.allow_heuristic) throw;
      }
    } else if (!ladder.allow_heuristic) {
      throw;
    }
  }

  // Rung 2: heuristic stand-in.  Throws only when the platform genuinely
  // cannot broadcast; the session stays usable either way (a failure leaves
  // cutting_dirty_ set, success caches like any other solution).
  cutting_solution_ = heuristic_solution();
  cutting_dirty_ = false;
  ++stats_.heuristic_plans;
  return cutting_solution_;
}

// ---- mutation layer ---------------------------------------------------------

void PlannerSession::note_mutation() {
  ++stats_.mutations;
  cutting_dirty_ = true;
  packing_dirty_ = true;
}

void PlannerSession::kill_arc_column(EdgeId e) {
  if (!var_alive_[e]) return;
  const std::vector<LpTerm> pin = {{var_of_arc_[e], 1.0}};
  value_master_->append_row(pin, RowSense::kLessEqual, 0.0);
  stable_master_->append_row(pin, RowSense::kLessEqual, 0.0);
  var_alive_[e] = 0;
  ++stats_.kill_rows;
}

void PlannerSession::replace_arc_column(EdgeId e) {
  const Digraph& g = platform_.graph();
  const double t = platform_.edge_time(e);
  // Port rows carry the (new) arc time; cut rows are time-free, so the
  // replacement re-enters exactly the pooled cuts that contain the arc with
  // the same -1 coefficient the original column had.
  std::vector<LpTerm> terms;
  terms.reserve(master_cuts_.size() + 2);
  const std::size_t from_row = out_row_[g.from(e)];
  const std::size_t to_row = in_row_[g.to(e)];
  BT_ASSERT(from_row != kNoRow && to_row != kNoRow,
            "PlannerSession: arc endpoints lost their port rows");
  terms.push_back({from_row, t});
  terms.push_back({to_row, t});
  for (const CutEntry& entry : master_cuts_) {
    if (std::binary_search(entry.cut->begin(), entry.cut->end(), e)) {
      terms.push_back({entry.value_row, -1.0});
    }
  }
  const std::size_t var = value_master_->add_column(0.0, terms);
  for (LpTerm& term : terms) ++term.var;  // stable rows sit past the TP-floor row
  const std::size_t stable_var = stable_master_->add_column(-stabilization_weight(e), terms);
  BT_ASSERT(stable_var == var, "PlannerSession: standing masters lost column sync");
  var_of_arc_[e] = var;
  var_alive_[e] = 1;
  ++stats_.replacement_columns;
}

void PlannerSession::set_link_cost(EdgeId e, LinkCost cost) {
  platform_.set_link_cost(e, cost);  // validates arc id and cost
  removed_[e] = 0;
  if (value_master_ != nullptr && stable_master_ != nullptr) {
    kill_arc_column(e);
    replace_arc_column(e);
  } else {
    // No consistent standing pair to delta (pre-first-solve, post-rollback,
    // or after a stable-master stall): drop them and let the next solve
    // rebuild from the pool, which link-cost changes leave valid (cut rows
    // are time-free).
    value_master_.reset();
    stable_master_.reset();
  }
  note_mutation();
}

void PlannerSession::scale_link_time(EdgeId e, double factor) {
  BT_REQUIRE(factor > 0.0 && std::isfinite(factor),
             "PlannerSession::scale_link_time: factor must be positive and finite");
  const LinkCost& cost = platform_.link_cost(e);
  set_link_cost(e, LinkCost{cost.alpha * factor, cost.beta * factor});
}

void PlannerSession::remove_link(EdgeId e) {
  BT_REQUIRE(e < platform_.num_edges(), "PlannerSession::remove_link: arc out of range");
  if (removed_[e]) return;  // idempotent
  removed_[e] = 1;
  if (value_master_ != nullptr && stable_master_ != nullptr) {
    kill_arc_column(e);
  } else {
    value_master_.reset();
    stable_master_.reset();
  }
  drop_pool_trees_containing(e);
  note_mutation();
}

Platform grow_platform(const Platform& platform, const std::vector<SessionLink>& in_links,
                       const std::vector<SessionLink>& out_links) {
  BT_REQUIRE(!in_links.empty(),
             "grow_platform: the new node needs an incoming link to be reachable");
  const std::size_t old_nodes = platform.num_nodes();
  const std::size_t old_edges = platform.num_edges();
  for (const SessionLink& l : in_links) {
    BT_REQUIRE(l.peer < old_nodes, "grow_platform: peer out of range");
  }
  for (const SessionLink& l : out_links) {
    BT_REQUIRE(l.peer < old_nodes, "grow_platform: peer out of range");
  }

  Digraph g = platform.graph();
  const NodeId node = g.add_node();
  std::vector<LinkCost> costs;
  costs.reserve(old_edges + in_links.size() + out_links.size());
  for (EdgeId e = 0; e < old_edges; ++e) costs.push_back(platform.link_cost(e));
  for (const SessionLink& l : in_links) {
    g.add_edge(l.peer, node);
    costs.push_back(l.cost);
  }
  for (const SessionLink& l : out_links) {
    g.add_edge(node, l.peer);
    costs.push_back(l.cost);
  }
  // The Platform constructor re-validates costs and reachability.
  Platform grown(std::move(g), std::move(costs), platform.slice_size(), platform.source());
  std::vector<double> send, recv;
  send.reserve(old_nodes + 1);
  recv.reserve(old_nodes + 1);
  for (NodeId u = 0; u < old_nodes; ++u) {
    send.push_back(platform.send_overhead(u));
    recv.push_back(platform.recv_overhead(u));
  }
  send.push_back(0.0);
  recv.push_back(0.0);
  grown.set_send_overheads(std::move(send));
  grown.set_recv_overheads(std::move(recv));
  return grown;
}

Platform shrink_platform(const Platform& platform, NodeId node, ShrinkRemap* remap) {
  const std::size_t old_nodes = platform.num_nodes();
  const std::size_t old_edges = platform.num_edges();
  BT_REQUIRE(node < old_nodes, "shrink_platform: node out of range");
  BT_REQUIRE(node != platform.source(), "shrink_platform: cannot remove the source");
  BT_REQUIRE(old_nodes > 2, "shrink_platform: a platform needs at least two nodes");

  std::vector<NodeId> node_map(old_nodes);
  for (NodeId u = 0; u < old_nodes; ++u) {
    node_map[u] = u == node ? Digraph::npos : (u < node ? u : u - 1);
  }
  const Digraph& old_g = platform.graph();
  Digraph g(old_nodes - 1);
  std::vector<LinkCost> costs;
  std::vector<EdgeId> edge_map(old_edges, Digraph::npos);
  costs.reserve(old_edges);
  for (EdgeId e = 0; e < old_edges; ++e) {
    const NodeId u = old_g.from(e), v = old_g.to(e);
    if (u == node || v == node) continue;
    edge_map[e] = g.add_edge(node_map[u], node_map[v]);
    costs.push_back(platform.link_cost(e));
  }
  // The Platform constructor re-validates reachability: a leave that
  // disconnects the platform throws here.
  Platform shrunk(std::move(g), std::move(costs), platform.slice_size(),
                  node_map[platform.source()]);
  std::vector<double> send, recv;
  send.reserve(old_nodes - 1);
  recv.reserve(old_nodes - 1);
  for (NodeId u = 0; u < old_nodes; ++u) {
    if (u == node) continue;
    send.push_back(platform.send_overhead(u));
    recv.push_back(platform.recv_overhead(u));
  }
  shrunk.set_send_overheads(std::move(send));
  shrunk.set_recv_overheads(std::move(recv));
  if (remap != nullptr) {
    remap->node_map = std::move(node_map);
    remap->edge_map = std::move(edge_map);
  }
  return shrunk;
}

NodeId PlannerSession::add_node(const std::vector<SessionLink>& in_links,
                                const std::vector<SessionLink>& out_links) {
  platform_ = grow_platform(platform_, in_links, out_links);
  const NodeId node = platform_.num_nodes() - 1;
  removed_.resize(platform_.num_edges(), 0);

  // Structural fallback: pooled cuts are no longer source->w cuts of the
  // grown graph and pooled trees no longer span it.  Reset everything; the
  // next solve is cold.
  reset_cutting_state();
  reset_packing_state();
  note_mutation();
  return node;
}

SsbSolution PlannerSession::solve_cold() const {
  PlannerSession fresh(platform_, options_);
  for (EdgeId e = 0; e < platform_.num_edges(); ++e) {
    if (removed_[e]) fresh.remove_link(e);
  }
  return fresh.solve();
}

// ---- packing (column generation) --------------------------------------------

void PlannerSession::reset_packing_state() {
  tree_seen_.clear();
  tree_pool_.clear();
  packing_dirty_ = true;
  packing_solution_ = SsbPackingSolution{};
}

void PlannerSession::drop_pool_trees_containing(EdgeId e) {
  std::vector<std::vector<EdgeId>> kept;
  kept.reserve(tree_pool_.size());
  for (std::vector<EdgeId>& tree : tree_pool_) {
    if (std::find(tree.begin(), tree.end(), e) != tree.end()) {
      std::vector<EdgeId> key = tree;
      std::sort(key.begin(), key.end());
      tree_seen_.erase(key);
    } else {
      kept.push_back(std::move(tree));
    }
  }
  tree_pool_ = std::move(kept);
}

void PlannerSession::run_packing_solve() {
  const Digraph& g = platform_.graph();
  const std::size_t p = g.num_nodes();
  const NodeId source = platform_.source();
  const SsbColumnGenOptions& options = options_.colgen;

  // Arc times seen by the pricing oracle; removed arcs are priced out.
  std::vector<double> arc_time = platform_.edge_times();
  bool any_removed = false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (removed_[e]) {
      arc_time[e] = kRemovedArcPrice;
      any_removed = true;
    }
  }

  SsbPackingSolution solution;
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();
  solution.phase_stats.oracle_threads = pool.num_threads();

  // Rebuild the columns from the pooled trees under the *current* link
  // times: mutations change occupation coefficients, but yesterday's
  // optimal trees remain the best warm basis for today's packing (the
  // pool-seeded re-solve).  Trees over removed arcs were dropped at
  // removal time, so the pool only holds valid spanning trees.  The
  // rebuild fans out over the pool in contiguous chunks -- each task
  // writes only its trees' pre-sized slots, so the chunk layout never
  // changes the column order the master sees.
  std::vector<TreeColumn> columns(tree_pool_.size());
  {
    Timer rebuild_timer;
    const ChunkSplit rebuild_split(tree_pool_.size(), pool.num_threads());
    parallel_for(pool, rebuild_split.chunks, [&](std::size_t c) {
      for (std::size_t i = rebuild_split.chunk_begin(c); i < rebuild_split.chunk_begin(c + 1);
           ++i) {
        columns[i] = make_column(platform_, tree_pool_[i]);
      }
    });
    solution.phase_stats.pricing_wall_ms += rebuild_timer.millis();
  }

  // Deduplicate generated trees by sorted arc list: the pricing oracle can
  // legitimately return an existing tree when the LP is already optimal.
  auto add_column = [&](std::vector<EdgeId> edges) {
    std::vector<EdgeId> key = edges;
    std::sort(key.begin(), key.end());
    if (!tree_seen_.insert(std::move(key)).second) return false;
    tree_pool_.push_back(edges);
    columns.push_back(make_column(platform_, std::move(edges)));
    return true;
  };

  // Seed with one arborescence (cheapest total time; any spanning tree
  // works) when the pool is empty -- first solve, or every pooled tree was
  // invalidated by removals.
  if (columns.empty()) {
    const auto seed = min_arborescence(g, source, arc_time);
    BT_REQUIRE(seed.found, "solve_ssb_column_generation: platform not spanning");
    if (any_removed) {
      for (EdgeId e : seed.edges) {
        BT_REQUIRE(!removed_[e],
                   "PlannerSession: platform cannot broadcast (removals cut the source off)");
      }
    }
    add_column(seed.edges);
  }

  std::vector<double> lambda;

  const PortModel model = options.port_model;

  // Pricing step: min-weight arborescence under the port duals `y` (one
  // per master row: 2p or p entries in master_terms' layout).  Returns
  // true when an improving column was appended.  The arc-price fill fans
  // out over the pool (price[e] is a function of e alone, so tasks write
  // disjoint slots and the vector is bitwise-independent of the chunking);
  // the Chu-Liu/Edmonds call itself keeps thread_local workspaces
  // (graph/min_arborescence.cpp), so concurrent packing solves -- e.g.
  // sweep cells fanned out over the same pool -- price safely in parallel.
  const ChunkSplit price_split(g.num_edges(), pool.num_threads());
  std::vector<double> price(g.num_edges());
  auto price_and_append = [&](const std::vector<double>& y) {
    // Fault hook, counted once per pricing round in this serial section.
    if (fault_fire(FaultSite::kPricingOracle)) {
      throw Error("fault injection: pricing oracle failure");
    }
    Timer pricing_timer;
    parallel_for(pool, price_split.chunks, [&](std::size_t c) {
      for (EdgeId e = price_split.chunk_begin(c); e < price_split.chunk_begin(c + 1); ++e) {
        if (removed_[e]) {
          price[e] = kRemovedArcPrice;
          continue;
        }
        const double y_out =
            std::max(0.0, model == PortModel::kBidirectional ? y[2 * g.from(e)] : y[g.from(e)]);
        const double y_in =
            std::max(0.0, model == PortModel::kBidirectional ? y[2 * g.to(e) + 1] : y[g.to(e)]);
        price[e] = platform_.edge_time(e) * (y_out + y_in);
      }
    });
    const auto priced = min_arborescence(g, source, price);
    solution.phase_stats.pricing_wall_ms += pricing_timer.millis();
    BT_ASSERT(priced.found, "solve_ssb_column_generation: pricing lost spanning property");

    // Reduced cost of the best tree: 1 - priced.weight.  Non-positive means
    // no improving column exists and (for exact duals) the master is optimal.
    // A removed arc drives the weight past 1, so trees over removed arcs
    // never qualify.
    if (priced.weight >= 1.0 - options.tolerance) return false;
    return add_column(priced.edges);  // duplicate: numerically converged
  };

  // ---- Standing master: rows are fixed up front and the model starts from
  // every pooled column; each pricing round appends one column and
  // re-optimizes from the current basis. ----
  SimplexOptions master_lp_options;
  master_lp_options.pricing = kPackingPricing;
  master_lp_options.dual_row_rule = kPackingDualRowRule;
  master_lp_options.collect_kernel_timing = options.master_kernel_timing;
  LpProblem lp(Objective::kMaximize);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    lp.add_variable(1.0, "tree" + std::to_string(j));
  }
  // Rows transposed from the canonical per-column layout of master_terms
  // (rows exist even when empty, so indexing is stable as columns arrive).
  std::vector<std::vector<LpTerm>> rows(model == PortModel::kBidirectional ? 2 * p : p);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    for (const LpTerm& t : master_terms(columns[j], p, model)) {
      rows[t.var].push_back({j, t.coeff});
    }
  }
  for (const std::vector<LpTerm>& row : rows) lp.add_constraint(row, RowSense::kLessEqual, 1.0);
  IncrementalSimplex engine(lp, master_lp_options);
  std::vector<double> smoothed;  // Wentges stabilization center
  while (columns.size() < options.max_columns) {
    ++solution.separation_rounds;
    Timer master_timer;
    const LpSolution master = engine.solve();
    solution.master_wall_ms += master_timer.millis();
    BT_REQUIRE(master.status == LpStatus::kOptimal,
               "solve_ssb_column_generation: master LP " + to_string(master.status));
    solution.lp_iterations += master.iterations;
    lambda = master.x;

    // Price under smoothed duals; on mis-pricing fall back to the exact
    // duals, which alone certify optimality.
    const double alpha = options.dual_smoothing;
    bool progressed;
    if (alpha > 0.0 && !smoothed.empty()) {
      for (std::size_t i = 0; i < smoothed.size(); ++i) {
        smoothed[i] = alpha * smoothed[i] + (1.0 - alpha) * master.duals[i];
      }
      progressed = price_and_append(smoothed);
      if (!progressed) {
        smoothed = master.duals;  // re-center the stabilization
        progressed = price_and_append(master.duals);
      }
    } else {
      smoothed = master.duals;
      progressed = price_and_append(master.duals);
    }
    if (!progressed) break;
    engine.add_column(1.0, master_terms(columns.back(), p, model));
  }
  solution.lp_stats.accumulate(engine.engine_stats());
  BT_REQUIRE(columns.size() < options.max_columns,
             "solve_ssb_column_generation: column cap hit without convergence");

  // ---- Assemble the solution. ----
  solution.solved = true;
  solution.edge_load.assign(g.num_edges(), 0.0);
  solution.throughput = 0.0;
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const double rate = j < lambda.size() ? lambda[j] : 0.0;
    solution.throughput += rate;
    if (rate <= 0.0) continue;
    for (EdgeId e : columns[j].edges) solution.edge_load[e] += rate;
    PackedTree tree;
    tree.edges = columns[j].edges;
    tree.rate = rate;
    solution.trees.push_back(std::move(tree));
  }
  solution.tree_columns = solution.trees;
  solution.cuts_generated = columns.size();
  packing_solution_ = std::move(solution);
}

const SsbPackingSolution& PlannerSession::solve_packing() {
  if (!packing_dirty_) return packing_solution_;
  ++stats_.packing_solves;
  try {
    run_packing_solve();
  } catch (...) {
    // The packing master is rebuilt from the pool each run, so there is no
    // standing engine to roll back -- only the count matters.  tree_pool_ /
    // tree_seen_ stay consistent (add_column inserts into both).
    ++stats_.rollbacks;
    throw;
  }
  packing_dirty_ = false;
  return packing_solution_;
}

}  // namespace bt
