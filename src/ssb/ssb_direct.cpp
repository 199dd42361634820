#include "ssb/ssb_direct.hpp"

#include <vector>

#include "lp/simplex.hpp"
#include "ssb/ssb_port_rows.hpp"
#include "util/error.hpp"

namespace bt {

SsbDirectSolution solve_ssb_direct(const Platform& platform,
                                   const SsbDirectOptions& options) {
  const Digraph& g = platform.graph();
  const NodeId source = platform.source();
  const std::size_t p = g.num_nodes();
  const std::size_t m = g.num_edges();
  BT_REQUIRE(p >= 2, "solve_ssb_direct: need at least two nodes");

  SsbDirectSolution solution;
  for (NodeId w = 0; w < p; ++w) {
    if (w != source) solution.destinations.push_back(w);
  }
  const std::size_t num_dest = solution.destinations.size();

  LpProblem lp(Objective::kMaximize);
  // Variable layout: x[e][k] for arc e, commodity k; then n[e]; then TP.
  auto x_var = [&](EdgeId e, std::size_t k) { return e * num_dest + k; };
  for (EdgeId e = 0; e < m; ++e) {
    for (std::size_t k = 0; k < num_dest; ++k) {
      lp.add_variable(0.0, "x_e" + std::to_string(e) + "_w" +
                               std::to_string(solution.destinations[k]));
    }
  }
  const std::size_t n_base = lp.num_variables();
  auto n_var = [&](EdgeId e) { return n_base + e; };
  for (EdgeId e = 0; e < m; ++e) lp.add_variable(0.0, "n_e" + std::to_string(e));
  const std::size_t tp_var = lp.add_variable(1.0, "TP");

  for (std::size_t k = 0; k < num_dest; ++k) {
    const NodeId w = solution.destinations[k];

    // (a) everything destined to w leaving the source per time-unit = TP.
    // The paper writes a gross sum; we use the *net* outflow (out - in).
    // For genuine solutions the two coincide (the source never usefully
    // receives its own commodity), but the gross form also admits degenerate
    // circulations that fake delivery through cycles touching the source or
    // the destination; the net form rules them out.
    std::vector<LpTerm> send_row;
    for (EdgeId e : g.out_edges(source)) send_row.push_back({x_var(e, k), 1.0});
    for (EdgeId e : g.in_edges(source)) send_row.push_back({x_var(e, k), -1.0});
    send_row.push_back({tp_var, -1.0});
    lp.add_constraint(send_row, RowSense::kEqual, 0.0);

    // (b) everything destined to w arriving at w per time-unit = TP (net).
    std::vector<LpTerm> recv_row;
    for (EdgeId e : g.in_edges(w)) recv_row.push_back({x_var(e, k), 1.0});
    for (EdgeId e : g.out_edges(w)) recv_row.push_back({x_var(e, k), -1.0});
    recv_row.push_back({tp_var, -1.0});
    lp.add_constraint(recv_row, RowSense::kEqual, 0.0);

    // (c) conservation at every intermediate node v (v != source, v != w).
    for (NodeId v = 0; v < p; ++v) {
      if (v == source || v == w) continue;
      std::vector<LpTerm> row;
      for (EdgeId e : g.in_edges(v)) row.push_back({x_var(e, k), 1.0});
      for (EdgeId e : g.out_edges(v)) row.push_back({x_var(e, k), -1.0});
      lp.add_constraint(row, RowSense::kEqual, 0.0);
    }
  }

  // (d) n_e = max_w x_e^w, relaxed to n_e >= x_e^w (maximization of TP keeps
  // n as small as the binding port constraints allow).
  for (EdgeId e = 0; e < m; ++e) {
    for (std::size_t k = 0; k < num_dest; ++k) {
      lp.add_constraint({{x_var(e, k), 1.0}, {n_var(e), -1.0}}, RowSense::kLessEqual, 0.0);
    }
  }

  // (e)+(h): per-arc occupation t_e = n_e * T_e <= 1.
  for (EdgeId e = 0; e < m; ++e) {
    lp.add_constraint({{n_var(e), platform.edge_time(e)}}, RowSense::kLessEqual, 1.0);
  }
  // (f)+(i): serialized incoming occupation of each node <= 1.
  // (g)+(j): serialized outgoing occupation of each node <= 1.
  // (Unidirectional port model: one combined send+receive row per node.)
  add_port_rows(lp, platform, options.port_model, n_var);

  const LpSolution lp_solution = solve_lp(lp);
  BT_REQUIRE(lp_solution.status == LpStatus::kOptimal,
             "solve_ssb_direct: LP not optimal: " + to_string(lp_solution.status));
  BT_ASSERT(lp.max_violation(lp_solution.x) < 1e-6,
            "solve_ssb_direct: simplex returned an infeasible point (violation " +
                std::to_string(lp.max_violation(lp_solution.x)) + ")");

  solution.solved = true;
  solution.throughput = lp_solution.objective;
  solution.lp_iterations = lp_solution.iterations;
  solution.edge_load.resize(m);
  for (EdgeId e = 0; e < m; ++e) solution.edge_load[e] = lp_solution.x[n_var(e)];
  solution.commodity_flow.assign(lp_solution.x.begin(), lp_solution.x.begin() + m * num_dest);
  return solution;
}

}  // namespace bt
