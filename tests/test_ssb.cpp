// Tests for the steady-state broadcast optimum solvers: the direct
// transcription of program (2) and the cutting-plane solver, cross-validated
// against each other and against hand-solvable topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "flow/maxflow.hpp"
#include "graph/arborescence.hpp"
#include "platform/platform.hpp"
#include "platform/random_generator.hpp"
#include "platform/tiers_generator.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_direct.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

/// Star: source 0 linked to k leaves, every arc taking `t` seconds.  One-port
/// emission at the source binds: TP* = 1 / (k * t)... but with multiple trees
/// the source still serializes all sends, and every leaf must receive TP
/// slices per unit time, each arriving over its single incoming arc.  The
/// source port constraint gives sum_e n_e * t <= 1 with n_e >= TP, so
/// TP* = 1/(k*t).
Platform star_platform(std::size_t leaves, double t) {
  Digraph g(leaves + 1);
  std::vector<LinkCost> costs;
  for (NodeId v = 1; v <= leaves; ++v) {
    g.add_edge(0, v);
    costs.push_back({0.0, t});
  }
  return Platform(std::move(g), std::move(costs), 1.0, 0);
}

/// Chain 0 -> 1 -> ... -> n-1 with per-arc times `t[i]`.
Platform chain_platform(const std::vector<double>& t) {
  Digraph g(t.size() + 1);
  std::vector<LinkCost> costs;
  for (std::size_t i = 0; i < t.size(); ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
    costs.push_back({0.0, t[i]});
  }
  return Platform(std::move(g), std::move(costs), 1.0, 0);
}

TEST(SsbDirect, StarThroughput) {
  const Platform p = star_platform(4, 0.5);
  const auto s = solve_ssb_direct(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 1.0 / (4 * 0.5), 1e-7);
}

TEST(SsbDirect, ChainThroughputBoundByslowestLink) {
  const Platform p = chain_platform({0.2, 0.5, 0.25});
  const auto s = solve_ssb_direct(p);
  ASSERT_TRUE(s.solved);
  // Each node forwards on a single outgoing arc; slowest arc (0.5 s) binds.
  EXPECT_NEAR(s.throughput, 2.0, 1e-7);
}

TEST(SsbDirect, EdgeLoadsMatchThroughputOnChain) {
  const Platform p = chain_platform({0.2, 0.5});
  const auto s = solve_ssb_direct(p);
  ASSERT_TRUE(s.solved);
  // Every arc of a chain carries every slice: n_e = TP on all arcs.
  for (EdgeId e = 0; e < p.num_edges(); ++e) {
    EXPECT_NEAR(s.edge_load[e], s.throughput, 1e-6);
  }
}

TEST(SsbCuttingPlane, StarThroughput) {
  const Platform p = star_platform(5, 0.25);
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 1.0 / (5 * 0.25), 1e-7);
}

TEST(SsbCuttingPlane, ChainThroughput) {
  const Platform p = chain_platform({0.1, 0.4, 0.2, 0.4});
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 2.5, 1e-7);
}

TEST(SsbCuttingPlane, TwoParallelPathsBeatOneTree) {
  // Source with two disjoint length-2 paths to the far node plus direct arcs
  // to the relays: the MTP optimum can use both paths for different slices.
  //    0 -> 1 -> 3,  0 -> 2 -> 3, all arcs 1s.
  Digraph g(4);
  std::vector<LinkCost> costs;
  auto add = [&](NodeId a, NodeId b) {
    g.add_edge(a, b);
    costs.push_back({0.0, 1.0});
  };
  add(0, 1);
  add(0, 2);
  add(1, 3);
  add(2, 3);
  const Platform p(std::move(g), std::move(costs), 1.0, 0);
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);
  // The source must send every slice to both 1 and 2 (their only in-arcs),
  // so its out-port binds: 2 sends of 1s per slice -> TP* = 1/2.  Node 3 can
  // receive alternating halves... its in-port must carry TP over two arcs
  // with combined occupation <= 1: n(1->3) + n(2->3) >= TP and each slice of
  // load costs 1s on the port, so TP <= 1/2 is binding -> TP* = 1/2 exactly.
  EXPECT_NEAR(s.throughput, 0.5, 1e-7);
}

TEST(SsbAgreement, DirectAndCuttingPlaneAgreeOnRandomPlatforms) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    RandomPlatformConfig config;
    config.num_nodes = 5 + rng.index(4);  // 5..8 nodes keeps the direct LP small
    config.density = 0.3;
    Rng prng = rng.split();
    const Platform p = generate_random_platform(config, prng);
    const auto direct = solve_ssb_direct(p);
    const auto cut = solve_ssb_cutting_plane(p);
    ASSERT_TRUE(direct.solved);
    ASSERT_TRUE(cut.solved);
    EXPECT_NEAR(direct.throughput, cut.throughput,
                1e-5 * std::max(1.0, direct.throughput))
        << "trial " << trial;
  }
}

TEST(SsbCuttingPlane, LoadsRespectPortConstraints) {
  Rng rng(31337);
  RandomPlatformConfig config;
  config.num_nodes = 25;
  config.density = 0.12;
  const Platform p = generate_random_platform(config, rng);
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);
  const Digraph& g = p.graph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double out = 0.0, in = 0.0;
    for (EdgeId e : g.out_edges(u)) out += s.edge_load[e] * p.edge_time(e);
    for (EdgeId e : g.in_edges(u)) in += s.edge_load[e] * p.edge_time(e);
    EXPECT_LE(out, 1.0 + 1e-6);
    EXPECT_LE(in, 1.0 + 1e-6);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_GE(s.edge_load[e], -1e-9);
}

TEST(SsbCuttingPlane, ThroughputIsMinCutUnderLoads) {
  // Certificate check: at the optimum, min over destinations of
  // maxflow(source -> w) under capacities n_e equals TP*.
  Rng rng(555);
  RandomPlatformConfig config;
  config.num_nodes = 15;
  config.density = 0.15;
  const Platform p = generate_random_platform(config, rng);
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);

  double min_flow = std::numeric_limits<double>::infinity();
  for (NodeId w = 0; w < p.num_nodes(); ++w) {
    if (w == p.source()) continue;
    min_flow = std::min(min_flow, max_flow(p.graph(), p.source(), w, s.edge_load).value);
  }
  EXPECT_NEAR(min_flow, s.throughput, 1e-6);
}

TEST(SsbCuttingPlane, WorksOnTiersPlatforms) {
  Rng rng(777);
  const Platform p = generate_tiers_platform(tiers_config_30(), rng);
  const auto s = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(s.solved);
  EXPECT_GT(s.throughput, 0.0);
  EXPECT_GT(s.cuts_generated, 0u);
}

// ----------------------------------------------------- column generation --

TEST(SsbColumnGen, StarThroughput) {
  const Platform p = star_platform(5, 0.25);
  const auto s = solve_ssb_column_generation(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 1.0 / (5 * 0.25), 1e-7);
  // A star has exactly one spanning tree; the packing must use it alone.
  ASSERT_EQ(s.trees.size(), 1u);
  EXPECT_NEAR(s.trees[0].rate, s.throughput, 1e-9);
}

TEST(SsbColumnGen, ChainThroughput) {
  const Platform p = chain_platform({0.1, 0.4, 0.2, 0.4});
  const auto s = solve_ssb_column_generation(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 2.5, 1e-7);
}

TEST(SsbColumnGen, TwoParallelPaths) {
  Digraph g(4);
  std::vector<LinkCost> costs;
  auto add = [&](NodeId a, NodeId b) {
    g.add_edge(a, b);
    costs.push_back({0.0, 1.0});
  };
  add(0, 1);
  add(0, 2);
  add(1, 3);
  add(2, 3);
  const Platform p(std::move(g), std::move(costs), 1.0, 0);
  const auto s = solve_ssb_column_generation(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 0.5, 1e-7);
}

TEST(SsbColumnGen, AgreesWithDirectOnRandomPlatforms) {
  Rng rng(512);
  for (int trial = 0; trial < 12; ++trial) {
    RandomPlatformConfig config;
    config.num_nodes = 5 + rng.index(4);
    config.density = 0.3;
    Rng prng = rng.split();
    const Platform p = generate_random_platform(config, prng);
    const auto direct = solve_ssb_direct(p);
    const auto cg = solve_ssb_column_generation(p);
    EXPECT_NEAR(cg.throughput, direct.throughput,
                1e-5 * std::max(1.0, direct.throughput))
        << "trial " << trial;
  }
}

TEST(SsbColumnGen, AgreesWithCuttingPlaneAtScale) {
  Rng rng(513);
  RandomPlatformConfig config;
  config.num_nodes = 30;
  config.density = 0.08;
  const Platform p = generate_random_platform(config, rng);
  const auto cg = solve_ssb_column_generation(p);
  const auto cut = solve_ssb_cutting_plane(p);
  EXPECT_NEAR(cg.throughput, cut.throughput, 1e-5 * std::max(1.0, cg.throughput));
}

TEST(SsbColumnGen, PackingIsAValidSchedule) {
  // The headline feature: the returned trees form an explicit MTP schedule.
  Rng rng(514);
  RandomPlatformConfig config;
  config.num_nodes = 20;
  config.density = 0.16;
  const Platform p = generate_random_platform(config, rng);
  const auto s = solve_ssb_column_generation(p);
  ASSERT_TRUE(s.solved);
  ASSERT_FALSE(s.trees.empty());

  double total_rate = 0.0;
  std::vector<double> load(p.num_edges(), 0.0);
  for (const PackedTree& tree : s.trees) {
    EXPECT_GT(tree.rate, 0.0);
    EXPECT_TRUE(is_spanning_arborescence(p.graph(), p.source(), tree.edges));
    total_rate += tree.rate;
    for (EdgeId e : tree.edges) load[e] += tree.rate;
  }
  // Rates sum to the throughput; per-arc loads match edge_load.
  EXPECT_NEAR(total_rate, s.throughput, 1e-7);
  for (EdgeId e = 0; e < p.num_edges(); ++e) {
    EXPECT_NEAR(load[e], s.edge_load[e], 1e-7);
  }
  // And the schedule respects every port constraint.
  for (NodeId u = 0; u < p.num_nodes(); ++u) {
    double out = 0.0, in = 0.0;
    for (EdgeId e : p.graph().out_edges(u)) out += load[e] * p.edge_time(e);
    for (EdgeId e : p.graph().in_edges(u)) in += load[e] * p.edge_time(e);
    EXPECT_LE(out, 1.0 + 1e-6);
    EXPECT_LE(in, 1.0 + 1e-6);
  }
}

TEST(SsbColumnGen, SingleTreeOnTreePlatform) {
  // On a platform that *is* a tree (plus back arcs), the only spanning
  // arborescence is the tree itself: TP* = its one-port throughput.
  const Platform p = chain_platform({0.5, 0.25});
  const auto s = solve_ssb_column_generation(p);
  ASSERT_EQ(s.trees.size(), 1u);
  EXPECT_NEAR(s.throughput, 2.0, 1e-9);
}

TEST(SsbColumnGen, HandlesPathologicalCuttingPlaneInstance) {
  // The random 40-node / 0.12 instance on which the cutting-plane master
  // stalls for minutes (massively degenerate optimal face) -- column
  // generation must solve it quickly and exactly.
  Rng rng(40 * 31 + 12);
  RandomPlatformConfig config;
  config.num_nodes = 40;
  config.density = 0.12;
  const Platform p = generate_random_platform(config, rng);
  const auto s = solve_ssb_column_generation(p);
  ASSERT_TRUE(s.solved);
  EXPECT_NEAR(s.throughput, 66.0189, 0.01);
}

TEST(SsbColumnGen, WorksOnTiersPlatforms) {
  Rng rng(779);
  const Platform p = generate_tiers_platform(tiers_config_65(), rng);
  const auto s = solve_ssb(p);
  ASSERT_TRUE(s.solved);
  EXPECT_GT(s.throughput, 0.0);
}

TEST(SsbColumnGen, DeterministicAcrossRuns) {
  Rng rng(890);
  RandomPlatformConfig config;
  config.num_nodes = 25;
  config.density = 0.12;
  const Platform p = generate_random_platform(config, rng);
  const auto a = solve_ssb_column_generation(p);
  const auto b = solve_ssb_column_generation(p);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.edge_load, b.edge_load);
}

TEST(SsbCuttingPlane, DeterministicAcrossRuns) {
  Rng rng(888);
  RandomPlatformConfig config;
  config.num_nodes = 20;
  config.density = 0.1;
  const Platform p = generate_random_platform(config, rng);
  const auto a = solve_ssb_cutting_plane(p);
  const auto b = solve_ssb_cutting_plane(p);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.edge_load, b.edge_load);
}

TEST(SsbCuttingPlane, StabilizationTamesThePathologicalInstance) {
  // With the lexicographic anti-degeneracy stage the 40-node instance that
  // used to need hundreds of separation rounds converges in ~10 and agrees
  // with column generation.
  Rng rng(40 * 31 + 12);
  RandomPlatformConfig config;
  config.num_nodes = 40;
  config.density = 0.12;
  const Platform p = generate_random_platform(config, rng);
  const auto cut = solve_ssb_cutting_plane(p);
  ASSERT_TRUE(cut.solved);
  EXPECT_LE(cut.separation_rounds, 40u);
  const auto cg = solve_ssb_column_generation(p);
  EXPECT_NEAR(cut.throughput, cg.throughput, 1e-5 * std::max(1.0, cg.throughput));
}

TEST(SsbColumnGen, IncrementalPackingMatchesCuttingPlane) {
  // The standing packing master (one IncrementalSimplex, a column appended
  // per pricing round) and the cutting-plane solver -- a different master
  // program over arc loads, polished on its own standing masters -- must
  // find the same optimum.
  Rng rng(611);
  for (int trial = 0; trial < 6; ++trial) {
    RandomPlatformConfig config;
    config.num_nodes = 10 + 5 * static_cast<std::size_t>(trial);
    config.density = 0.15;
    Rng prng = rng.split();
    const Platform p = generate_random_platform(config, prng);

    const auto packing = solve_ssb_column_generation(p);
    const auto cutting = solve_ssb_cutting_plane(p);
    ASSERT_TRUE(packing.solved && cutting.solved) << "trial " << trial;
    EXPECT_NEAR(packing.throughput, cutting.throughput,
                1e-6 * std::max(1.0, cutting.throughput))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace bt
