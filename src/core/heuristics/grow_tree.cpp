#include <limits>

#include "core/heuristics.hpp"
#include "util/error.hpp"

namespace bt {

BroadcastTree grow_tree(const Platform& platform) {
  const Digraph& g = platform.graph();
  const std::size_t n = g.num_nodes();
  const NodeId source = platform.source();

  // Algorithm 3: grow from the source, always adding the frontier arc (u,v)
  // whose addition yields the smallest weighted out-degree of u, i.e.
  // cost(u,v) = OutDegree_tree(u) + T_{u,v}.  (The paper's pseudo-code
  // accumulates cost(u,v) into sibling arcs, which double-counts earlier
  // children; we implement the metric its prose defines.)
  std::vector<char> in_tree(n, 0);
  std::vector<double> out_degree(n, 0.0);
  in_tree[source] = 1;

  BroadcastTree tree;
  tree.root = source;
  tree.edges.reserve(n - 1);

  for (std::size_t added = 0; added + 1 < n; ++added) {
    EdgeId best = Digraph::npos;
    double best_cost = std::numeric_limits<double>::infinity();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const NodeId u = g.from(e);
      const NodeId v = g.to(e);
      if (!in_tree[u] || in_tree[v]) continue;
      const double cost = out_degree[u] + platform.edge_time(e);
      if (cost < best_cost || (cost == best_cost && e < best)) {
        best_cost = cost;
        best = e;
      }
    }
    BT_REQUIRE(best != Digraph::npos, "grow_tree: frontier empty before spanning");
    const NodeId u = g.from(best);
    const NodeId v = g.to(best);
    out_degree[u] += platform.edge_time(best);
    in_tree[v] = 1;
    tree.edges.push_back(best);
  }
  tree.validate(platform);
  return tree;
}

}  // namespace bt
