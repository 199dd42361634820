#include <algorithm>
#include <limits>
#include <numeric>

#include "core/heuristics.hpp"
#include "core/heuristics/prune_common.hpp"
#include "util/error.hpp"

namespace bt {

BroadcastTree lp_prune(const Platform& platform, const std::vector<double>& edge_load) {
  const Digraph& g = platform.graph();
  BT_REQUIRE(edge_load.size() == g.num_edges(), "lp_prune: edge_load size mismatch");

  // Algorithm 6: delete the arcs carrying the fewest messages in the MTP
  // optimum first.  (The paper's pseudo-code says "non-increasing n_{u,v}"
  // but its prose -- "delete the edges ... [that] have minimum weight, i.e.
  // edges carrying the fewest messages" -- fixes the intent.)
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    if (edge_load[a] != edge_load[b]) return edge_load[a] < edge_load[b];
    return a < b;
  });
  const auto mask = detail::prune_with_static_order(platform, order);
  return detail::mask_to_tree(platform, mask);
}

BroadcastTree lp_grow_tree(const Platform& platform, const std::vector<double>& edge_load) {
  const Digraph& g = platform.graph();
  BT_REQUIRE(edge_load.size() == g.num_edges(), "lp_grow_tree: edge_load size mismatch");
  const std::size_t n = g.num_nodes();
  const NodeId source = platform.source();

  // Algorithm 7: grow from the source, always following the frontier arc
  // with the largest n_{u,v}.
  std::vector<char> in_tree(n, 0);
  in_tree[source] = 1;

  BroadcastTree tree;
  tree.root = source;
  tree.edges.reserve(n - 1);

  for (std::size_t added = 0; added + 1 < n; ++added) {
    EdgeId best = Digraph::npos;
    double best_load = -std::numeric_limits<double>::infinity();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!in_tree[g.from(e)] || in_tree[g.to(e)]) continue;
      if (edge_load[e] > best_load || (edge_load[e] == best_load && e < best)) {
        best_load = edge_load[e];
        best = e;
      }
    }
    BT_REQUIRE(best != Digraph::npos, "lp_grow_tree: frontier empty before spanning");
    in_tree[g.to(best)] = 1;
    tree.edges.push_back(best);
  }
  tree.validate(platform);
  return tree;
}

}  // namespace bt
