// Tests for the long-lived PlannerSession (ssb/planner_session.hpp): the
// load -> solve -> query -> mutate -> re-solve lifecycle, the differential
// guarantee that warm delta re-plans agree with cold solves to <= 1e-9
// relative throughput, the error-rollback contract, the packing-pool
// caching, and the schedules synthesized from the session's plans.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "platform/platform.hpp"
#include "platform/random_generator.hpp"
#include "sched/orchestrate.hpp"
#include "ssb/planner_session.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

Platform random_platform(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = n <= 12 ? 0.3 : 0.18;
  return generate_random_platform(config, rng);
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(PlannerSession, MatchesBatchSolverOnFirstSolve) {
  // The batch entry points are wrappers over a throwaway session, so this
  // pins the wrapper plumbing: an explicit session with default options
  // reports the identical solution.
  const Platform p = random_platform(14, 42);
  const SsbSolution batch = solve_ssb_cutting_plane(p);
  PlannerSession session(p);
  const SsbSolution& s = session.solve();
  EXPECT_EQ(s.throughput, batch.throughput);  // bitwise: same code path
  ASSERT_EQ(s.edge_load.size(), batch.edge_load.size());
  for (std::size_t e = 0; e < s.edge_load.size(); ++e) {
    EXPECT_EQ(s.edge_load[e], batch.edge_load[e]) << "arc " << e;
  }
  EXPECT_EQ(session.stats().cutting_solves, 1u);
  // Cached: a second solve does no LP work.
  session.solve();
  EXPECT_EQ(session.stats().cutting_solves, 1u);
}

TEST(PlannerSession, RequiresTwoNodes) {
  Digraph g;
  g.add_node();
  EXPECT_THROW(PlannerSession(Platform(g, {}, 1.0, 0), PlannerSessionOptions{}), Error);
}

// The differential guarantee of the mutation layer: a mutation sequence
// absorbed warmly by the standing masters ends at the same optimum a cold
// solve of the final platform computes, to <= 1e-9 relative throughput.
void run_differential(PortModel port_model, std::uint64_t seed) {
  const Platform p = random_platform(18, seed);
  PlannerSessionOptions options;
  options.cutting.port_model = port_model;
  options.colgen.port_model = port_model;
  PlannerSession session(p, options);
  session.solve();

  Rng rng(seed * 31 + 7);
  std::vector<EdgeId> removed;
  for (int step = 0; step < 12; ++step) {
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    const EdgeId e = static_cast<EdgeId>(rng.index(p.num_edges()));
    switch (kind) {
      case 0:
        session.scale_link_time(e, rng.uniform_real(1.1, 2.5));
        break;
      case 1:
        session.scale_link_time(e, rng.uniform_real(0.4, 0.95));
        break;
      case 2:
        session.set_link_cost(e, p.link_cost(e));  // restore pristine
        break;
      default:
        // Removing risks disconnecting the platform; keep at most two
        // outstanding and restore the oldest first when over.
        if (removed.size() >= 2) {
          const EdgeId back = removed.front();
          removed.erase(removed.begin());
          session.set_link_cost(back, p.link_cost(back));
        }
        session.remove_link(e);
        removed.push_back(e);
        break;
    }
    double warm = 0.0;
    bool disconnected = false;
    try {
      warm = session.solve().throughput;
    } catch (const Error&) {
      // Removals cut the source off: restore them and continue; the
      // rollback contract (masters reset, pools kept) is what lets this
      // session keep going.
      disconnected = true;
      for (EdgeId r : removed) session.set_link_cost(r, p.link_cost(r));
      removed.clear();
      warm = session.solve().throughput;
    }
    const double cold = session.solve_cold().throughput;
    EXPECT_LE(rel_diff(warm, cold), 1e-9)
        << "step " << step << " kind " << kind << " warm " << warm << " cold " << cold
        << (disconnected ? " (after reconnect)" : "");
  }
  EXPECT_GT(session.stats().warm_resolves, 0u);
  EXPECT_GT(session.stats().mutations, 0u);
}

TEST(PlannerSession, DifferentialWarmEqualsColdBidirectional) {
  run_differential(PortModel::kBidirectional, 1234);
  run_differential(PortModel::kBidirectional, 98765);
}

TEST(PlannerSession, DifferentialWarmEqualsColdUnidirectional) {
  run_differential(PortModel::kUnidirectional, 555);
  run_differential(PortModel::kUnidirectional, 31337);
}

TEST(PlannerSession, FailedSolveRollsBackAndSessionStaysUsable) {
  // Regression for the indeterminate-master bug: a solve that throws used
  // to leave the standing masters mid-append; subsequent re-solves
  // continued from that corrupt state.  Now the session rolls back to the
  // pools and the next solve rebuilds.
  const Platform p = random_platform(12, 77);
  PlannerSession session(p);
  const double tp0 = session.solve().throughput;

  // Cut node w (!= source) off: remove every arc into it.
  const NodeId w = (p.source() + 1) % p.num_nodes();
  for (EdgeId e : p.graph().in_edges(w)) session.remove_link(e);
  EXPECT_THROW(session.solve(), Error);
  EXPECT_GE(session.stats().rollbacks, 1u);

  // The session must remain usable: restore the arcs and re-solve.
  for (EdgeId e : p.graph().in_edges(w)) session.set_link_cost(e, p.link_cost(e));
  const double tp1 = session.solve().throughput;
  EXPECT_LE(rel_diff(tp1, tp0), 1e-9);
  const double cold = session.solve_cold().throughput;
  EXPECT_LE(rel_diff(tp1, cold), 1e-9);
}

TEST(PlannerSession, AddNodeMatchesBatchOnGrownPlatform) {
  const Platform p = random_platform(10, 2024);
  PlannerSession session(p);
  session.solve();

  std::vector<SessionLink> in_links, out_links;
  in_links.push_back({p.source(), LinkCost{0.0, 2e-8}});
  in_links.push_back({(p.source() + 2) % p.num_nodes(), LinkCost{0.0, 4e-8}});
  out_links.push_back({(p.source() + 1) % p.num_nodes(), LinkCost{0.0, 3e-8}});
  const NodeId added = session.add_node(in_links, out_links);
  EXPECT_EQ(added, p.num_nodes());
  EXPECT_EQ(session.platform().num_nodes(), p.num_nodes() + 1);

  const double warm = session.solve().throughput;
  const Platform grown = grow_platform(p, in_links, out_links);
  const SsbSolution batch = solve_ssb_cutting_plane(grown);
  EXPECT_LE(rel_diff(warm, batch.throughput), 1e-9);
}

TEST(PlannerSession, GrowPlatformValidates) {
  const Platform p = random_platform(8, 5);
  EXPECT_THROW(grow_platform(p, {}, {{0, LinkCost{0.0, 1e-8}}}), Error);  // unreachable node
  EXPECT_THROW(grow_platform(p, {{p.num_nodes() + 3, LinkCost{0.0, 1e-8}}}, {}), Error);
  const Platform grown = grow_platform(p, {{0, LinkCost{0.0, 1e-8}}}, {});
  EXPECT_EQ(grown.num_nodes(), p.num_nodes() + 1);
  EXPECT_EQ(grown.num_edges(), p.num_edges() + 1);
  EXPECT_EQ(grown.graph().to(p.num_edges()), p.num_nodes());
}

TEST(PlannerSession, SynthesizedScheduleTracksThroughputAcrossMutations) {
  // The schedule of a session's plan never beats the LP optimum and stays
  // within the synthesis guarantees (see test_sched.cpp for the tight
  // dyadic cases), before and after a warm re-plan.
  const Platform p = random_platform(12, 99);
  PlannerSession session(p);
  const PeriodicSchedule sched0 = synthesize_schedule(session.platform(), session.solve());
  const double tp = session.throughput();
  EXPECT_LE(sched0.throughput(), tp * (1.0 + 1e-9));
  EXPECT_GE(sched0.throughput(), tp * 0.45);

  const EdgeId e = 0;
  session.scale_link_time(e, 1.8);
  const PeriodicSchedule sched1 = synthesize_schedule(session.platform(), session.solve());
  const double tp1 = session.throughput();
  EXPECT_LE(sched1.throughput(), tp1 * (1.0 + 1e-9));
  EXPECT_GE(sched1.throughput(), tp1 * 0.45);
}

TEST(PlannerSession, PackingPoolSeededResolveMatchesBatch) {
  const Platform p = random_platform(14, 314);
  PlannerSession session(p);
  const SsbPackingSolution& pack0 = session.solve_packing();
  EXPECT_TRUE(pack0.solved);
  EXPECT_EQ(session.stats().packing_solves, 1u);
  session.solve_packing();  // cached
  EXPECT_EQ(session.stats().packing_solves, 1u);

  // Mutate and pool-seeded re-solve; a fresh batch colgen on the mutated
  // platform is the reference.
  Platform mutated = p;
  const EdgeId e = 1;
  LinkCost cost = p.link_cost(e);
  cost.alpha *= 1.6;
  cost.beta *= 1.6;
  mutated.set_link_cost(e, cost);
  session.scale_link_time(e, 1.6);
  const double warm = session.solve_packing().throughput;
  const double batch = solve_ssb_column_generation(mutated).throughput;
  EXPECT_LE(rel_diff(warm, batch), 1e-9);

  // Removing an arc drops pooled trees over it; the re-solve must not
  // route anything across the removed arc.
  session.remove_link(e);
  const SsbPackingSolution& pack2 = session.solve_packing();
  EXPECT_NEAR(pack2.edge_load[e], 0.0, 1e-12);
  for (const PackedTree& tree : pack2.tree_columns) {
    for (EdgeId arc : tree.edges) EXPECT_NE(arc, e);
  }
}

TEST(PlannerSession, StatsCountMutationMachinery) {
  const Platform p = random_platform(10, 404);
  PlannerSession session(p);
  session.solve();
  session.scale_link_time(0, 1.5);
  session.solve();
  const PlannerSessionStats& stats = session.stats();
  EXPECT_EQ(stats.mutations, 1u);
  EXPECT_GE(stats.kill_rows, 1u);
  EXPECT_GE(stats.replacement_columns, 1u);
  EXPECT_GE(stats.warm_resolves, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
}

}  // namespace
}  // namespace bt
