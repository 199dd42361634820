#pragma once

// The paper's broadcast-tree heuristics (Sections 3 and 4.2) plus the STA
// baselines from related work (Section 6).  Every function returns a valid
// spanning out-arborescence rooted at the platform source and throws
// bt::Error on unusable inputs.  Where the paper's pseudo-code and prose
// disagree, the implementation follows the prose; the choice is noted at
// the function (grow_tree.cpp, lp_based.cpp).

#include <vector>

#include "core/broadcast_tree.hpp"
#include "platform/platform.hpp"

namespace bt {

// --------------------------- platform-based (Section 3.1) ------------------

/// Algorithm 1, Topo-Prune-Simple: repeatedly delete the heaviest arc whose
/// removal keeps every node reachable from the source, down to n-1 arcs.
BroadcastTree prune_platform_simple(const Platform& platform);

/// Algorithm 2, Topo-Prune-Degree: delete arcs from the node whose current
/// weighted out-degree is largest (heaviest arc of that node first), as long
/// as reachability from the source is preserved.
BroadcastTree prune_platform_degree(const Platform& platform);

/// Algorithm 3, Grow-Tree: Prim-style growth that always adds the frontier
/// arc minimizing the resulting weighted out-degree of its sender.
BroadcastTree grow_tree(const Platform& platform);

/// Algorithm 4, Binomial-Tree: the MPI-style index binomial tree, with each
/// logical transfer routed along the T-weighted shortest path.  This variant
/// sanitizes the union of paths into a spanning arborescence (first parent
/// wins), which is what the simulator and the tree API consume.
BroadcastTree binomial_tree(const Platform& platform);

/// Algorithm 4 as written: the *multiset* of all routed transfer hops.  Hub
/// arcs shared by several transfers appear with multiplicity and congest
/// their endpoints -- the faithful model of an MPI binomial broadcast on a
/// sparse topology, and the variant the experiment harness rates.
BroadcastOverlay binomial_overlay(const Platform& platform);

// --------------------------- multi-port (Section 3.2) ----------------------

/// Algorithm 5, Multi-Port Grow-Tree: Grow-Tree with the multi-port period
/// max(deltaout(u) * send_u, max_child T) as the cost of attaching a child.
BroadcastTree multiport_grow_tree(const Platform& platform);

/// Multiport-Prune-Degree (Section 5.2.2): Topo-Prune-Degree with the
/// multi-port node period as pruning metric.
BroadcastTree multiport_prune_degree(const Platform& platform);

// --------------------------- LP-based (Section 4.2) ------------------------

/// Algorithm 6, LP-Prune: delete arcs carrying the fewest messages in the
/// optimal MTP solution (`edge_load` = n_{u,v}, indexed by arc id) while
/// reachability from the source is preserved.
BroadcastTree lp_prune(const Platform& platform, const std::vector<double>& edge_load);

/// Algorithm 7, LP-Grow-Tree: grow from the source always following the
/// frontier arc with the largest n_{u,v}.
BroadcastTree lp_grow_tree(const Platform& platform, const std::vector<double>& edge_load);

// --------------------------- STA baselines (Section 6) ---------------------

/// Fastest Node First [Banikazemi et al.]: attach the frontier node with the
/// smallest forwarding speed estimate first (node speed = min outgoing T),
/// via the sender that completes the transfer earliest (STA semantics).
BroadcastTree fastest_node_first(const Platform& platform);

/// Fastest Edge First / earliest-completion greedy [Bhat et al.]: repeatedly
/// perform the transfer (informed -> uninformed) that completes earliest
/// under one-port STA semantics.
BroadcastTree fastest_edge_first(const Platform& platform);

}  // namespace bt
