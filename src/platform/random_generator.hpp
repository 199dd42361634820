#pragma once

// Random platform generation following Table 2 of the paper:
//   number of nodes : 10, 20, ..., 50
//   density         : 0.04, 0.08, ..., 0.20
//   link rate       : Gaussian, mean 100 MB/s, deviation 20 MB/s
//   send_u          : 0.80 * min over outgoing arcs of T_{u,w}
//
// The paper does not say how sparse graphs are kept connected (a G(n, 0.04)
// graph on 10 nodes is disconnected w.h.p.).  We lay a uniformly random
// spanning tree first (as bidirectional links) and then fill with random
// bidirectional links up to the requested density, so every platform can
// broadcast however sparse it is.

#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace bt {

/// Parameters of the random platform family (defaults = Table 2).
struct RandomPlatformConfig {
  std::size_t num_nodes = 30;
  /// Target arc density m / (n*(n-1)).  Clamped from below by the density of
  /// the bidirectional spanning-tree backbone, 2/n.
  double density = 0.12;
  /// Link rate distribution (bytes per second).
  double rate_mean = 100.0e6;
  double rate_stddev = 20.0e6;
  /// Rates below this floor are resampled (keeps T finite and positive).
  double rate_floor = 10.0e6;
  /// Per-slice start-up latency alpha (seconds).  The paper's experiments use
  /// pure bandwidth weights; alpha defaults to 0.
  double alpha = 0.0;
  /// Application slice size L (bytes).
  double slice_size = 1.0e6;
  /// Multi-port overhead ratio (Section 5.1: 80% of the fastest link).
  double multiport_ratio = 0.8;
  NodeId source = 0;
};

/// Generate one random platform; deterministic given `rng` state.
Platform generate_random_platform(const RandomPlatformConfig& config, Rng& rng);

}  // namespace bt
