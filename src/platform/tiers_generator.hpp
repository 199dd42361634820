#pragma once

// Tiers-style hierarchical topology generation.
//
// The paper's "realistic" platforms come from Tiers [Calvert, Doar, Zegura
// 1997], a generator of three-level (WAN / MAN / LAN) internet-like
// topologies.  The original binary is not available, so we substitute a
// generator with the same three-level structure:
//
//  * a WAN core: random spanning tree over the WAN routers plus a number of
//    redundancy links;
//  * each WAN router hosts some MANs: a star of MAN routers around it, plus
//    intra-MAN redundancy links;
//  * each MAN router hosts LAN leaf hosts (stars, no redundancy -- LANs are
//    trees in Tiers as well).
//
// All links are bidirectional; link rates follow the same Gaussian
// distribution as the random platforms (Section 5.1 of the paper).  The knobs
// below are tuned so 30- and 65-node instances land in the paper's density
// range of 0.05 - 0.15.

#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace bt {

/// Parameters of the Tiers-style generator.
struct TiersConfig {
  /// Total number of nodes; the generator distributes them over the levels.
  std::size_t num_nodes = 30;
  /// Number of WAN core routers (level 1).
  std::size_t wan_nodes = 4;
  /// MAN routers attached per WAN router (level 2).
  std::size_t mans_per_wan = 2;
  /// Extra redundancy links inside the WAN core (beyond its spanning tree).
  std::size_t wan_redundancy = 2;
  /// Extra redundancy links among the MAN routers of the same WAN router.
  std::size_t man_redundancy = 1;
  /// Link rate distribution, shared with the random generator.
  double rate_mean = 100.0e6;
  double rate_stddev = 20.0e6;
  double rate_floor = 10.0e6;
  double alpha = 0.0;
  double slice_size = 1.0e6;
  double multiport_ratio = 0.8;
  /// Source is a WAN core router (index 0), matching a broadcast that
  /// originates at a well-connected site.
  NodeId source = 0;
};

/// Standard configurations used by the paper's Table 3 (30 and 65 nodes).
TiersConfig tiers_config_30();
TiersConfig tiers_config_65();

/// Configuration for an arbitrary node count: returns the exact paper
/// configuration at 30 / 65 nodes and scales the WAN/MAN level widths and
/// redundancy with the same proportions beyond that (the lifted Table 3
/// sweeps use it for 100-200 node platforms, which land in the paper's
/// 0.05-0.15 density range like the originals).
TiersConfig tiers_config_for(std::size_t num_nodes);

/// Generate one Tiers-style platform; deterministic given `rng` state.
Platform generate_tiers_platform(const TiersConfig& config, Rng& rng);

}  // namespace bt
