#include "sched/tree_decomposition.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <string>

#include "flow/maxflow.hpp"
#include "graph/arborescence.hpp"
#include "graph/min_arborescence.hpp"
#include "graph/reachability.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bt {

namespace {

/// The support subgraph of the load vector: arcs with load above threshold,
/// with their loads and a map back to the original arc ids.
struct Support {
  Digraph graph;
  std::vector<EdgeId> to_orig;
  std::vector<double> load;
};

Support build_support(const Digraph& g, const std::vector<double>& load, double threshold) {
  Support s;
  s.graph = Digraph(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (load[e] <= threshold) continue;
    s.graph.add_edge(g.from(e), g.to(e));
    s.to_orig.push_back(e);
    s.load.push_back(load[e]);
  }
  return s;
}

/// Greedy bottleneck peeling: repeatedly take a spanning arborescence of the
/// highest-loaded arcs (largest threshold tau whose support still spans) and
/// peel it by its minimum residual load.  The peeled trees both seed the
/// packing master and, when they already exhaust TP, short-circuit it.
struct GreedyPeel {
  std::vector<std::vector<EdgeId>> trees;  ///< sub arc ids
  std::vector<double> rates;
  double peeled = 0.0;  ///< sum of rates
};

GreedyPeel greedy_bottleneck_peel(const Support& s, NodeId source, double target,
                                  double support_tol) {
  GreedyPeel result;
  std::vector<double> residual = s.load;
  double remaining = target;
  // A small cap: greedy either exhausts TP quickly (the fast path) or its
  // columns merely seed the packing master, where too many near-parallel
  // seeds degrade the basis more than they help.
  while (result.trees.size() < 16 && remaining > support_tol) {
    std::vector<double> values;
    for (double v : residual) {
      if (v > support_tol) values.push_back(v);
    }
    if (values.empty()) break;
    std::sort(values.begin(), values.end(), std::greater<>());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    // Largest threshold whose support spans; spanning is monotone in the
    // threshold index (smaller threshold = more arcs), so binary search.
    auto spans_at = [&](double tau) {
      EdgeMask mask(s.graph.num_edges(), 0);
      for (EdgeId e = 0; e < s.graph.num_edges(); ++e) mask[e] = residual[e] >= tau ? 1 : 0;
      return all_reachable_from(s.graph, source, mask);
    };
    std::size_t lo = 0, hi = values.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (spans_at(values[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo == values.size()) break;  // residual support no longer spans
    const double tau = values[lo];
    EdgeMask mask(s.graph.num_edges(), 0);
    for (EdgeId e = 0; e < s.graph.num_edges(); ++e) mask[e] = residual[e] >= tau ? 1 : 0;
    const std::vector<EdgeId> tree = bfs_arborescence(s.graph, source, mask);
    if (tree.empty()) break;
    double rate = remaining;
    for (EdgeId e : tree) rate = std::min(rate, residual[e]);
    if (rate <= support_tol) break;
    for (EdgeId e : tree) residual[e] -= rate;
    remaining -= rate;
    result.trees.push_back(tree);
    result.rates.push_back(rate);
    result.peeled += rate;
  }
  return result;
}

}  // namespace

TreeDecomposition decompose_edge_load(const Platform& platform, const SsbSolution& solution,
                                      const TreeDecompositionOptions& options) {
  const Digraph& g = platform.graph();
  const std::size_t p = g.num_nodes();
  BT_REQUIRE(p >= 2, "decompose_edge_load: need at least two nodes");
  BT_REQUIRE(solution.solved, "decompose_edge_load: solution is not solved");
  BT_REQUIRE(solution.edge_load.size() == g.num_edges(),
             "decompose_edge_load: edge_load size mismatch");
  const double tp = solution.throughput;
  BT_REQUIRE(tp > 0.0, "decompose_edge_load: non-positive throughput");
  const double scale = std::max(1.0, tp);
  const double value_tol = options.tolerance * scale;

  TreeDecomposition result;

  // ---- Exact path: the solver already holds a tree decomposition. ----
  if (options.use_solution_columns && !solution.tree_columns.empty()) {
    double total = 0.0;
    for (const PackedTree& tree : solution.tree_columns) {
      if (tree.rate <= 0.0) continue;
      std::string why;
      BT_REQUIRE(is_spanning_arborescence(g, platform.source(), tree.edges, &why),
                 "decompose_edge_load: solver tree column is not spanning: " + why);
      result.trees.push_back(tree);
      total += tree.rate;
    }
    BT_REQUIRE(std::abs(total - tp) <= 1e-6 * scale,
               "decompose_edge_load: tree column rates do not sum to the throughput");
    if (total > tp) {
      for (PackedTree& tree : result.trees) tree.rate *= tp / total;
      total = tp;
    }
    result.throughput = total;
    result.from_columns = true;
    return result;
  }

  // ---- Reconstruction from the loads. ----
  const double support_tol = options.tolerance * scale;
  const Support support = build_support(g, solution.edge_load, support_tol);
  const NodeId source = platform.source();
  BT_REQUIRE(all_reachable_from(support.graph, source),
             "decompose_edge_load: edge-load support does not span the platform");

  // Precondition (Edmonds): the loads carry TP* units of flow to every
  // destination.  One max-flow per destination, exactly the cutting-plane
  // separation certificate -- and parallelized the same way: contiguous
  // destination chunks, one single-consumer MaxFlowSolver per chunk, values
  // into destination-indexed slots.  The check runs serially afterwards so
  // a failure always reports the *first* under-served destination,
  // whatever the pool width.
  {
    ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();
    std::vector<NodeId> dests;
    dests.reserve(p - 1);
    for (NodeId w = 0; w < p; ++w) {
      if (w != source) dests.push_back(w);
    }
    const ChunkSplit split(dests.size(), pool.num_threads());
    std::vector<double> cert_value(dests.size(), 0.0);
    parallel_for(pool, split.chunks, [&](std::size_t c) {
      MaxFlowSolver maxflow(support.graph);
      MaxFlowResult flow;
      for (std::size_t i = split.chunk_begin(c); i < split.chunk_begin(c + 1); ++i) {
        maxflow.solve(source, dests[i], support.load, flow);
        cert_value[i] = flow.value;
      }
    });
    for (std::size_t i = 0; i < dests.size(); ++i) {
      BT_REQUIRE(cert_value[i] >= tp - 1e-6 * scale,
                 "decompose_edge_load: loads do not support the throughput (destination " +
                     std::to_string(dests[i]) + " receives " + std::to_string(cert_value[i]) +
                     " < " + std::to_string(tp) + ")");
    }
  }

  const GreedyPeel greedy = greedy_bottleneck_peel(support, source, tp, support_tol);
  result.greedy_trees = greedy.trees.size();

  std::vector<std::vector<EdgeId>> columns;  // sub arc ids, aligned with LP variables
  std::vector<double> lambda;

  if (tp - greedy.peeled <= value_tol && !greedy.trees.empty()) {
    // Greedy already exhausted the throughput; its rates are feasible by
    // construction (residuals stayed non-negative).
    columns = greedy.trees;
    lambda = greedy.rates;
  } else {
    // Restricted packing master over the support arcs, seeded with the
    // greedy trees (their rates are discarded -- the LP re-prices them).
    std::set<std::vector<EdgeId>> seen;
    auto key_of = [](std::vector<EdgeId> edges) {
      std::sort(edges.begin(), edges.end());
      return edges;
    };
    LpProblem lp(Objective::kMaximize);
    auto seed_trees = greedy.trees;
    if (seed_trees.empty()) {
      const std::vector<EdgeId> any = bfs_arborescence(support.graph, source);
      BT_ASSERT(!any.empty(), "decompose_edge_load: spanning support lost its tree");
      seed_trees.push_back(any);
    }
    for (const auto& tree : seed_trees) {
      if (!seen.insert(key_of(tree)).second) continue;
      lp.add_variable(1.0, "tree" + std::to_string(columns.size()));
      columns.push_back(tree);
    }
    std::vector<std::vector<LpTerm>> rows(support.graph.num_edges());
    for (std::size_t j = 0; j < columns.size(); ++j) {
      for (EdgeId e : columns[j]) rows[e].push_back({j, 1.0});
    }
    for (EdgeId e = 0; e < support.graph.num_edges(); ++e) {
      lp.add_constraint(rows[e], RowSense::kLessEqual, support.load[e]);
    }

    IncrementalSimplex engine(lp);
    const std::size_t m_sub = support.graph.num_edges();
    // Accept a tree as a new column when its true reduced cost improves
    // (1 - sum of duals > 0) and it is not already in the pool.
    auto try_append = [&](const ArborescenceResult& priced, const std::vector<double>& y) {
      BT_ASSERT(priced.found, "decompose_edge_load: pricing lost the spanning property");
      double dual_cost = 0.0;
      for (EdgeId e : priced.edges) dual_cost += y[e];
      if (dual_cost >= 1.0 - 1e-12 || !seen.insert(key_of(priced.edges)).second) return false;
      std::vector<LpTerm> terms;
      terms.reserve(priced.edges.size());
      for (EdgeId e : priced.edges) terms.push_back({e, 1.0});
      engine.add_column(1.0, terms);
      columns.push_back(priced.edges);
      return true;
    };
    double objective = 0.0;
    bool have_optimum = false;
    while (true) {
      if (result.pricing_rounds >= options.max_pricing_rounds) {
        // Same good-enough fallback as the engine-stall path below: the
        // cold polish + repair finish from any iterate above the floor.
        BT_REQUIRE(have_optimum && objective >= tp - 1e-6 * scale,
                   "decompose_edge_load: pricing round cap hit without convergence");
        break;
      }
      ++result.pricing_rounds;
      const LpSolution master = engine.solve();
      if (master.status != LpStatus::kOptimal) {
        // The packing master grows massively degenerate near its optimum
        // and the engine can stall out; the previous optimal iterate is a
        // valid (slightly incomplete) decomposition -- fall back to it.
        BT_REQUIRE(have_optimum && objective >= tp - 1e-6 * scale,
                   "decompose_edge_load: packing master LP " + to_string(master.status));
        break;
      }
      objective = master.objective;
      lambda = master.x;
      have_optimum = true;
      // Stop at 1e-7 relative: the degenerate tail from there to 1e-9
      // costs more master time than the rest of the decomposition
      // combined, and the cold polish below re-derives the rates anyway.
      if (objective >= tp - std::max(value_tol, 1e-7 * scale)) break;

      std::vector<double> y(m_sub);
      for (EdgeId e = 0; e < m_sub; ++e) y[e] = std::max(0.0, master.duals[e]);
      // Primary pricing steers toward slack-rich arcs: among the many
      // reduced-cost-improving trees of the degenerate master, prefer one
      // whose arcs can still carry rate, so the entering column makes real
      // primal progress.  Without this bias the master tails off for
      // thousands of rounds at 80+ nodes (each raw-dual tree reuses nearly
      // exhausted arcs and enters with a tiny step).  The bias is bounded
      // by 0.1 in total, and acceptance always re-checks the *true*
      // reduced cost; pure-dual pricing remains the convergence
      // certificate.
      std::vector<double> usage(m_sub, 0.0);
      for (std::size_t j = 0; j < columns.size(); ++j) {
        if (j >= lambda.size() || lambda[j] <= 0.0) continue;
        for (EdgeId e : columns[j]) usage[e] += lambda[j];
      }
      double max_slack = 1e-300;
      std::vector<double> slack(m_sub);
      for (EdgeId e = 0; e < m_sub; ++e) {
        slack[e] = std::max(0.0, support.load[e] - usage[e]);
        max_slack = std::max(max_slack, slack[e]);
      }
      const double bonus = 0.1 / static_cast<double>(p);
      std::vector<double> steered(m_sub);
      for (EdgeId e = 0; e < m_sub; ++e) steered[e] = y[e] - bonus * (slack[e] / max_slack);
      bool progressed = try_append(min_arborescence(support.graph, source, steered), y);
      if (!progressed) {
        progressed = try_append(min_arborescence(support.graph, source, y), y);
      }
      if (!progressed) {
        BT_REQUIRE(objective >= tp - 1e-6 * scale,
                   "decompose_edge_load: packing master converged below the throughput");
        break;
      }
    }

    // Final cold polish: a long incrementally-updated run can hand back a
    // primal with ~1e-5 row drift on this degenerate master; one cold solve
    // over the converged column pool restores a cleanly feasible basic
    // solution.
    {
      LpProblem polish(Objective::kMaximize);
      for (std::size_t j = 0; j < columns.size(); ++j) {
        polish.add_variable(1.0, "tree" + std::to_string(j));
      }
      std::vector<std::vector<LpTerm>> polish_rows(m_sub);
      for (std::size_t j = 0; j < columns.size(); ++j) {
        for (EdgeId e : columns[j]) polish_rows[e].push_back({j, 1.0});
      }
      for (EdgeId e = 0; e < m_sub; ++e) {
        polish.add_constraint(polish_rows[e], RowSense::kLessEqual, support.load[e]);
      }
      const LpSolution cold = solve_lp(polish);
      BT_REQUIRE(cold.status == LpStatus::kOptimal && cold.objective >= tp - 1e-6 * scale,
                 "decompose_edge_load: cold polish failed (" + to_string(cold.status) + ")");
      lambda = cold.x;
    }
  }

  // ---- Assemble: map back to original arc ids; cap the total at TP*. ----
  // Rates are only ever scaled *down* (the restricted master may pack more
  // than TP* when the loads have slack), never up -- scaling up could push
  // an arc above its load and void the checker's accounting.
  double total = 0.0;
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const double rate = j < lambda.size() ? lambda[j] : 0.0;
    if (rate <= 1e-12 * scale) continue;
    PackedTree tree;
    tree.rate = rate;
    tree.edges.reserve(columns[j].size());
    for (EdgeId e : columns[j]) tree.edges.push_back(support.to_orig[e]);
    result.trees.push_back(std::move(tree));
    total += rate;
  }
  BT_REQUIRE(total >= tp - 1e-6 * scale,
             "decompose_edge_load: decomposition rate " + std::to_string(total) +
                 " below throughput " + std::to_string(tp));
  if (total > tp) {
    for (PackedTree& tree : result.trees) tree.rate *= tp / total;
    total = tp;
  }
  // Exact feasibility repair: the degenerate packing master can hand back
  // rates with a bounded (~1e-6 relative) excess over some arc loads; one
  // proportional scale-down removes it exactly, costing at most that much
  // rate (the 2e-6 floor below accounts for both shortfalls).
  {
    std::vector<double> usage(g.num_edges(), 0.0);
    for (const PackedTree& tree : result.trees) {
      for (EdgeId e : tree.edges) usage[e] += tree.rate;
    }
    double factor = 1.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (usage[e] > solution.edge_load[e] && usage[e] > 0.0) {
        factor = std::min(factor, solution.edge_load[e] / usage[e]);
      }
    }
    if (factor < 1.0) {
      for (PackedTree& tree : result.trees) tree.rate *= factor;
      total *= factor;
    }
  }
  BT_REQUIRE(total >= tp - 2e-6 * scale,
             "decompose_edge_load: decomposition rate " + std::to_string(total) +
                 " below throughput " + std::to_string(tp) + " after feasibility repair");
  result.throughput = total;
  return result;
}

}  // namespace bt
