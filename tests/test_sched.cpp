// Schedule synthesis: flow -> tree decomposition, one-port orchestration,
// static validation and simulator replay.
//
// The headline checks: on dyadic platforms the decomposition reproduces the
// exact rational loads' throughput with at most |E| trees; bidirectional
// orchestration realizes TP* exactly (Birkhoff-von Neumann); the replay
// executor converges to the designed rate after the pipeline-fill
// transient; and the uniform 3-node clique pins the odd-set gap of the
// unidirectional LP (TP* = 3/4 is a relaxation -- no schedule beats 1/2,
// and the synthesized one achieves exactly that).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/heuristics.hpp"
#include "core/throughput.hpp"
#include "graph/arborescence.hpp"
#include "platform/random_generator.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "sched/validate.hpp"
#include "sim/schedule_replay.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

/// Random strongly-reachable platform with dyadic arc times k/16 (the same
/// family the cross-solver agreement suite uses).
Platform dyadic_platform(Rng& rng, std::size_t p, double extra_arc_prob) {
  Digraph g(p);
  std::vector<LinkCost> costs;
  auto add_arc = [&](NodeId a, NodeId b) {
    g.add_edge(a, b);
    costs.push_back({0.0, static_cast<double>(rng.uniform_int(1, 32)) / 16.0});
  };
  for (NodeId v = 1; v < p; ++v) add_arc(static_cast<NodeId>(rng.index(v)), v);
  for (NodeId a = 0; a < p; ++a) {
    for (NodeId b = 0; b < p; ++b) {
      if (a != b && rng.bernoulli(extra_arc_prob)) add_arc(a, b);
    }
  }
  return Platform(std::move(g), std::move(costs), 1.0, 0);
}

/// Uniform 3-node clique (all six arcs, T = 1).
Platform triangle_platform() {
  Digraph g(3);
  std::vector<LinkCost> costs;
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 0; b < 3; ++b) {
      if (a == b) continue;
      g.add_edge(a, b);
      costs.push_back({0.0, 1.0});
    }
  }
  return Platform(std::move(g), std::move(costs), 1.0, 0);
}

/// Per-arc slice rate of a decomposition.
std::vector<double> decomposition_loads(const Platform& platform,
                                        const TreeDecomposition& decomposition) {
  std::vector<double> loads(platform.num_edges(), 0.0);
  for (const PackedTree& tree : decomposition.trees) {
    for (EdgeId e : tree.edges) loads[e] += tree.rate;
  }
  return loads;
}

TEST(TreeDecomposition, ReconstructsCuttingPlaneLoadsOnDyadicPlatforms) {
  Rng rng(71);
  for (std::size_t p : {5, 8, 12}) {
    const Platform platform = dyadic_platform(rng, p, 0.3);
    const SsbSolution solution = solve_ssb_cutting_plane(platform);
    ASSERT_TRUE(solution.tree_columns.empty());  // this solver has no columns

    const TreeDecomposition decomposition = decompose_edge_load(platform, solution);
    EXPECT_FALSE(decomposition.from_columns);
    EXPECT_LE(decomposition.trees.size(), platform.num_edges());
    // The reconstruction's documented floor is 2e-6 relative (small
    // platforms typically converge to far better).
    EXPECT_NEAR(decomposition.throughput, solution.throughput,
                2e-6 * std::max(1.0, solution.throughput));

    double total = 0.0;
    for (const PackedTree& tree : decomposition.trees) {
      EXPECT_GT(tree.rate, 0.0);
      std::string why;
      EXPECT_TRUE(is_spanning_arborescence(platform.graph(), platform.source(), tree.edges,
                                           &why))
          << why;
      total += tree.rate;
    }
    EXPECT_NEAR(total, solution.throughput, 1e-9 * std::max(1.0, solution.throughput));
    const std::vector<double> loads = decomposition_loads(platform, decomposition);
    for (EdgeId e = 0; e < platform.num_edges(); ++e) {
      EXPECT_LE(loads[e], solution.edge_load[e] + 1e-9 * std::max(1.0, solution.throughput))
          << "arc " << e << " over-used";
    }
  }
}

TEST(TreeDecomposition, AdoptsColgenColumnsAndCanBeForcedToReconstruct) {
  Rng rng(5);
  const Platform platform = dyadic_platform(rng, 8, 0.3);
  const SsbPackingSolution solution = solve_ssb_column_generation(platform);
  ASSERT_FALSE(solution.tree_columns.empty());
  ASSERT_EQ(solution.tree_columns.size(), solution.trees.size());

  const TreeDecomposition exact = decompose_edge_load(platform, solution);
  EXPECT_TRUE(exact.from_columns);
  EXPECT_EQ(exact.trees.size(), solution.trees.size());
  EXPECT_EQ(exact.pricing_rounds, 0u);

  TreeDecompositionOptions force;
  force.use_solution_columns = false;
  const TreeDecomposition rebuilt = decompose_edge_load(platform, solution, force);
  EXPECT_FALSE(rebuilt.from_columns);
  EXPECT_NEAR(rebuilt.throughput, solution.throughput,
              2e-6 * std::max(1.0, solution.throughput));
  EXPECT_LE(rebuilt.trees.size(), platform.num_edges());
}

TEST(TreeDecomposition, RejectsDegenerateInputs) {
  // Single-node platform: no steady state to decompose (PR-1 convention:
  // bt::Error, not an internal assert).
  Platform single(Digraph(1), {}, 1.0, 0);
  SsbSolution empty;
  empty.solved = true;
  empty.throughput = 1.0;
  EXPECT_THROW(decompose_edge_load(single, empty), Error);

  Rng rng(9);
  const Platform platform = dyadic_platform(rng, 6, 0.3);
  SsbSolution unsolved;
  unsolved.edge_load.assign(platform.num_edges(), 0.0);
  EXPECT_THROW(decompose_edge_load(platform, unsolved), Error);

  // Loads that cannot carry the claimed throughput must be rejected by the
  // max-flow precondition, not silently decomposed.
  SsbSolution bogus = solve_ssb_cutting_plane(platform);
  bogus.throughput *= 2.0;
  EXPECT_THROW(decompose_edge_load(platform, bogus), Error);
}

TEST(Orchestration, BidirectionalRealizesTheOptimumOnDyadicPlatforms) {
  Rng rng(31);
  for (std::size_t p : {5, 8, 12}) {
    const Platform platform = dyadic_platform(rng, p, 0.3);
    const SsbSolution solution = solve_ssb_cutting_plane(platform);
    const PeriodicSchedule schedule = synthesize_schedule(platform, solution);

    // Birkhoff-von Neumann peeling realizes period = max port load, which
    // at an SSB optimum is exactly 1/TP* per slice (up to the
    // reconstruction's 2e-6 completeness floor).
    EXPECT_NEAR(schedule.throughput(), solution.throughput,
                3e-6 * std::max(1.0, solution.throughput));
    EXPECT_LE(schedule.rounds.size(), platform.num_edges() + 2 * platform.num_nodes() + 8);

    ScheduleCheckOptions options;
    options.reference = &solution;
    const ScheduleCheck check = check_schedule(platform, schedule, options);
    EXPECT_TRUE(check.ok) << (check.violations.empty() ? "" : check.violations.front());
  }
}

TEST(Orchestration, ColgenColumnsGiveExactLoadAccounting) {
  Rng rng(13);
  const Platform platform = dyadic_platform(rng, 10, 0.25);
  const SsbPackingSolution solution = solve_ssb_column_generation(platform);
  const PeriodicSchedule schedule = synthesize_schedule(platform, solution);

  ScheduleCheckOptions options;
  options.reference = &solution;
  options.require_exact_loads = true;  // the exact decomposition path
  const ScheduleCheck check = check_schedule(platform, schedule, options);
  EXPECT_TRUE(check.ok) << (check.violations.empty() ? "" : check.violations.front());
  EXPECT_LE(check.max_port_overuse, 0.0);
}

TEST(Orchestration, UnidirectionalTrianglePinsTheOddSetGap) {
  // Uniform 3-node clique: the unidirectional LP (per-node rows only)
  // claims TP* = 3/4, but any two transfers among three nodes share a
  // port, so a real schedule runs at most one transfer at a time: one
  // slice takes >= 2 time units and no schedule beats 1/2.  Matching
  // peeling achieves exactly that true optimum -- the 2/3 ratio below is
  // the odd-set (fractional edge coloring) gap of the relaxation, not an
  // orchestration deficiency.
  const Platform platform = triangle_platform();
  SsbColumnGenOptions options;
  options.port_model = PortModel::kUnidirectional;
  const SsbPackingSolution solution = solve_ssb_column_generation(platform, options);
  EXPECT_NEAR(solution.throughput, 0.75, 1e-9);

  OrchestrationOptions orchestration;
  orchestration.port_model = PortModel::kUnidirectional;
  const PeriodicSchedule schedule = synthesize_schedule(platform, solution, orchestration);
  EXPECT_NEAR(schedule.throughput(), 0.5, 1e-9);

  ScheduleCheckOptions check_options;
  check_options.reference = &solution;
  const ScheduleCheck check = check_schedule(platform, schedule, check_options);
  EXPECT_TRUE(check.ok) << (check.violations.empty() ? "" : check.violations.front());

  const ReplayResult replay = replay_schedule(platform, schedule);
  EXPECT_NEAR(replay.steady_throughput, 0.5, 1e-9);

  // Bidirectional ports resolve the clique: TP* = 1 and the schedule
  // realizes it.
  const SsbPackingSolution bidirectional = solve_ssb_column_generation(platform);
  EXPECT_NEAR(bidirectional.throughput, 1.0, 1e-9);
  const PeriodicSchedule bi_schedule = synthesize_schedule(platform, bidirectional);
  EXPECT_NEAR(bi_schedule.throughput(), 1.0, 1e-9);
  EXPECT_NEAR(replay_schedule(platform, bi_schedule).steady_throughput, 1.0, 1e-9);
}

TEST(Orchestration, UnidirectionalRoundsOnRandomPlatforms) {
  Rng rng(47);
  for (std::size_t p : {6, 10}) {
    const Platform platform = dyadic_platform(rng, p, 0.3);
    SsbCuttingPlaneOptions solver;
    solver.port_model = PortModel::kUnidirectional;
    const SsbSolution solution = solve_ssb_cutting_plane(platform, solver);
    OrchestrationOptions orchestration;
    orchestration.port_model = PortModel::kUnidirectional;
    const PeriodicSchedule schedule = synthesize_schedule(platform, solution, orchestration);

    // The schedule can never beat the LP relaxation, and the matchings
    // keep it within a constant factor of it (Shannon/Vizing-style).
    EXPECT_LE(schedule.throughput(), solution.throughput * (1.0 + 1e-9));
    EXPECT_GE(schedule.throughput(), solution.throughput * 0.45);

    ScheduleCheckOptions check_options;
    check_options.reference = &solution;
    const ScheduleCheck check = check_schedule(platform, schedule, check_options);
    EXPECT_TRUE(check.ok) << (check.violations.empty() ? "" : check.violations.front());

    // Replay sustains exactly what the rounds promise.
    const ReplayResult replay = replay_schedule(platform, schedule);
    EXPECT_NEAR(replay.steady_throughput, schedule.throughput(),
                1e-6 * schedule.throughput());
  }
}

TEST(Validator, CatchesCorruptedSchedules) {
  Rng rng(3);
  const Platform platform = dyadic_platform(rng, 6, 0.3);
  const SsbPackingSolution solution = solve_ssb_column_generation(platform);
  const PeriodicSchedule good = synthesize_schedule(platform, solution);
  ASSERT_TRUE(check_schedule(platform, good).ok);

  {  // A dropped round leaves tree traffic unshipped.
    PeriodicSchedule bad = good;
    bad.period -= bad.rounds.back().duration;
    bad.rounds.pop_back();
    EXPECT_FALSE(check_schedule(platform, bad).ok);
  }
  {  // An inflated transfer overflows its round (and the accounting).
    PeriodicSchedule bad = good;
    for (ScheduleRound& round : bad.rounds) {
      if (round.transfers.empty()) continue;
      round.transfers.front().amount *= 3.0;
      break;
    }
    const ScheduleCheck check = check_schedule(platform, bad);
    EXPECT_FALSE(check.ok);
    EXPECT_GT(check.max_ship_error, 0.0);
  }
  {  // Squashing all rounds into one creates port conflicts.
    PeriodicSchedule bad = good;
    ScheduleRound merged;
    merged.duration = bad.period;
    for (const ScheduleRound& round : bad.rounds) {
      merged.transfers.insert(merged.transfers.end(), round.transfers.begin(),
                              round.transfers.end());
    }
    bad.rounds.assign(1, merged);
    EXPECT_FALSE(check_schedule(platform, bad).ok);
  }
  {  // A transfer over an arc outside its tree.
    PeriodicSchedule bad = good;
    const std::set<EdgeId> arcs(bad.trees[0].edges.begin(), bad.trees[0].edges.end());
    for (EdgeId e = 0; e < platform.num_edges(); ++e) {
      if (arcs.count(e)) continue;
      for (ScheduleRound& round : bad.rounds) {
        if (round.transfers.empty()) continue;
        round.transfers.front().arc = e;
        round.transfers.front().tree = 0;
        break;
      }
      break;
    }
    EXPECT_FALSE(check_schedule(platform, bad).ok);
  }
}

TEST(SingleTreeSchedules, MatchTheClosedFormAndReplay) {
  Rng rng(17);
  RandomPlatformConfig config;
  config.num_nodes = 20;
  config.density = 0.15;
  const Platform platform = generate_random_platform(config, rng);
  const BroadcastTree tree = grow_tree(platform);

  const PeriodicSchedule schedule = schedule_single_tree(platform, tree);
  EXPECT_NEAR(schedule.throughput(), one_port_throughput(platform, tree),
              1e-9 * one_port_throughput(platform, tree));
  EXPECT_TRUE(check_schedule(platform, schedule).ok);

  const ReplayResult replay = replay_schedule(platform, schedule);
  EXPECT_NEAR(replay.steady_throughput, schedule.throughput(),
              1e-6 * schedule.throughput());

  // Unidirectional single-tree schedules replay what they promise too.
  const PeriodicSchedule uni = schedule_single_tree(platform, tree,
                                                    PortModel::kUnidirectional);
  EXPECT_TRUE(check_schedule(platform, uni).ok);
  EXPECT_LE(uni.throughput(), schedule.throughput() * (1.0 + 1e-9));
  EXPECT_NEAR(replay_schedule(platform, uni).steady_throughput, uni.throughput(),
              1e-6 * uni.throughput());

  // Degenerate single-node platform: bt::Error, PR-1 convention.
  Platform single(Digraph(1), {}, 1.0, 0);
  BroadcastTree no_arcs;
  no_arcs.root = 0;
  EXPECT_THROW(schedule_single_tree(single, no_arcs), Error);
  EXPECT_THROW(orchestrate_one_port(single, {}), Error);
}

TEST(Replay, ConvergesToTheOptimumAtFifty) {
  Rng rng(23);
  RandomPlatformConfig config;
  config.num_nodes = 50;
  config.density = 0.12;
  const Platform platform = generate_random_platform(config, rng);

  const SsbPackingSolution solution = solve_ssb_column_generation(platform);
  const PeriodicSchedule schedule = synthesize_schedule(platform, solution);
  ScheduleCheckOptions check_options;
  check_options.reference = &solution;
  const ScheduleCheck check = check_schedule(platform, schedule, check_options);
  ASSERT_TRUE(check.ok) << (check.violations.empty() ? "" : check.violations.front());

  const ReplayResult replay = replay_schedule(platform, schedule);
  EXPECT_GE(replay.steady_throughput, 0.999 * solution.throughput);
  EXPECT_LE(replay.steady_throughput, solution.throughput * (1.0 + 1e-6));
  // The transient is bounded by the deepest tree level.
  EXPECT_LE(replay.transient_periods + 2, replay.periods);

  // Same platform, unidirectional: replay converges to the designed rate.
  SsbColumnGenOptions uni_solver;
  uni_solver.port_model = PortModel::kUnidirectional;
  const SsbPackingSolution uni_solution = solve_ssb_column_generation(platform, uni_solver);
  OrchestrationOptions uni_orchestration;
  uni_orchestration.port_model = PortModel::kUnidirectional;
  const PeriodicSchedule uni_schedule =
      synthesize_schedule(platform, uni_solution, uni_orchestration);
  ASSERT_TRUE(check_schedule(platform, uni_schedule).ok);
  const ReplayResult uni_replay = replay_schedule(platform, uni_schedule);
  EXPECT_GE(uni_replay.steady_throughput, 0.999 * uni_schedule.throughput());
}

}  // namespace
}  // namespace bt
