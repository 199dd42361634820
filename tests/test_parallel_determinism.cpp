// Bitwise determinism of the in-solver parallel phases across pool widths.
//
// The parallel oracles (per-destination max-flow separation, the packing
// price/rebuild fan-out, the BvN consume step) are built on the slot-indexed
// parallel_for contract: tasks write only their own pre-sized slots and every
// reduction runs serially in index order afterwards, so the pool width is
// pure scheduling.  These tests pin that promise where it matters -- the
// *solved values and trajectories* must be bitwise-identical at 1, 2 and 4
// threads -- and exercise the shared global pool from concurrent batches,
// which is the TSan lane's target surface.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "platform/random_generator.hpp"
#include "sched/orchestrate.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bt {
namespace {

Platform test_platform(std::size_t nodes, std::uint64_t seed) {
  RandomPlatformConfig config;
  config.num_nodes = nodes;
  config.density = 0.15;
  Rng rng(seed);
  return generate_random_platform(config, rng);
}

/// Bitwise equality, not EXPECT_DOUBLE_EQ: the contract is that the pool
/// width never perturbs even the last ulp.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ParallelDeterminism, CuttingPlaneMatrixAcrossThreadCounts) {
  const Platform platform = test_platform(24, 171);
  ThreadPool serial(1);
  SsbCuttingPlaneOptions options;
  options.pool = &serial;
  const SsbSolution reference = solve_ssb_cutting_plane(platform, options);
  ASSERT_TRUE(reference.solved);
  EXPECT_EQ(reference.phase_stats.oracle_threads, 1u);
  // No degenerate-stall downgrades at paper sizes; and were one ever to
  // fire, it must fire identically at every pool width (checked below).
  EXPECT_EQ(reference.stable_stalls, 0u);

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    const SsbSolution solution = solve_ssb_cutting_plane(platform, options);
    EXPECT_TRUE(same_bits(solution.throughput, reference.throughput)) << threads << " threads";
    EXPECT_EQ(solution.edge_load, reference.edge_load) << threads << " threads";
    EXPECT_EQ(solution.cuts_generated, reference.cuts_generated) << threads << " threads";
    EXPECT_EQ(solution.separation_rounds, reference.separation_rounds) << threads << " threads";
    EXPECT_EQ(solution.stable_stalls, reference.stable_stalls) << threads << " threads";
    EXPECT_EQ(solution.phase_stats.oracle_threads, threads);
  }
}

TEST(ParallelDeterminism, ColumnGenerationMatrixAcrossThreadCounts) {
  const Platform platform = test_platform(24, 171);
  ThreadPool serial(1);
  SsbColumnGenOptions options;
  options.pool = &serial;
  const SsbPackingSolution reference = solve_ssb_column_generation(platform, options);
  ASSERT_TRUE(reference.solved);

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    const SsbPackingSolution solution = solve_ssb_column_generation(platform, options);
    EXPECT_TRUE(same_bits(solution.throughput, reference.throughput)) << threads << " threads";
    EXPECT_EQ(solution.edge_load, reference.edge_load) << threads << " threads";
    // cuts_generated carries the column count for the packing solver.
    EXPECT_EQ(solution.cuts_generated, reference.cuts_generated) << threads << " threads";
    ASSERT_EQ(solution.trees.size(), reference.trees.size()) << threads << " threads";
    for (std::size_t t = 0; t < solution.trees.size(); ++t) {
      EXPECT_EQ(solution.trees[t].edges, reference.trees[t].edges);
      EXPECT_TRUE(same_bits(solution.trees[t].rate, reference.trees[t].rate));
    }
  }
}

TEST(ParallelDeterminism, ScheduleSynthesisMatrixAcrossThreadCounts) {
  // Cutting-plane loads force the decomposition path (per-destination
  // certificate + restricted packing) ahead of the BvN peel, so this
  // covers all three parallel phases of schedule synthesis.
  const Platform platform = test_platform(16, 2718);
  ThreadPool serial(1);
  SsbCuttingPlaneOptions solve_options;
  solve_options.pool = &serial;
  const SsbSolution loads = solve_ssb_cutting_plane(platform, solve_options);
  ASSERT_TRUE(loads.solved);

  OrchestrationOptions orchestration;
  orchestration.pool = &serial;
  TreeDecompositionOptions decomposition;
  decomposition.pool = &serial;
  const PeriodicSchedule reference =
      synthesize_schedule(platform, loads, orchestration, decomposition);

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    orchestration.pool = &pool;
    decomposition.pool = &pool;
    const PeriodicSchedule schedule =
        synthesize_schedule(platform, loads, orchestration, decomposition);
    EXPECT_TRUE(same_bits(schedule.period, reference.period)) << threads << " threads";
    ASSERT_EQ(schedule.rounds.size(), reference.rounds.size()) << threads << " threads";
    for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
      EXPECT_TRUE(same_bits(schedule.rounds[r].duration, reference.rounds[r].duration));
      ASSERT_EQ(schedule.rounds[r].transfers.size(), reference.rounds[r].transfers.size())
          << "round " << r;
      for (std::size_t t = 0; t < schedule.rounds[r].transfers.size(); ++t) {
        EXPECT_EQ(schedule.rounds[r].transfers[t].arc, reference.rounds[r].transfers[t].arc);
        EXPECT_EQ(schedule.rounds[r].transfers[t].tree, reference.rounds[r].transfers[t].tree);
        EXPECT_TRUE(same_bits(schedule.rounds[r].transfers[t].amount,
                              reference.rounds[r].transfers[t].amount));
      }
    }
  }
}

TEST(ParallelDeterminism, ConcurrentSolvesOnSharedGlobalPool) {
  // Two solver threads fan their oracles out over the *same* global pool
  // concurrently (the experiment-sweep shape, and the TSan lane's main
  // surface): batches must stay independent and both results must match
  // their serial references bitwise.
  const Platform platform_a = test_platform(18, 5);
  const Platform platform_b = test_platform(18, 6);
  ThreadPool serial(1);
  SsbCuttingPlaneOptions serial_options;
  serial_options.pool = &serial;
  const SsbSolution ref_a = solve_ssb_cutting_plane(platform_a, serial_options);
  const SsbSolution ref_b = solve_ssb_cutting_plane(platform_b, serial_options);

  SsbCuttingPlaneOptions shared_options;  // pool = nullptr -> global pool
  SsbSolution got_a, got_b;
  std::thread worker([&] { got_b = solve_ssb_cutting_plane(platform_b, shared_options); });
  got_a = solve_ssb_cutting_plane(platform_a, shared_options);
  worker.join();
  EXPECT_TRUE(same_bits(got_a.throughput, ref_a.throughput));
  EXPECT_TRUE(same_bits(got_b.throughput, ref_b.throughput));
  EXPECT_EQ(got_a.edge_load, ref_a.edge_load);
  EXPECT_EQ(got_b.edge_load, ref_b.edge_load);
  EXPECT_EQ(got_a.cuts_generated, ref_a.cuts_generated);
  EXPECT_EQ(got_b.cuts_generated, ref_b.cuts_generated);
}

TEST(ParallelDeterminism, ConcurrentIndependentBatchesOnGlobalPool) {
  // Raw parallel_for batches racing on the global pool -- the minimal TSan
  // reproducer shape for the help-running waiter.
  ThreadPool& pool = global_thread_pool();
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&pool, &total] {
      for (int rep = 0; rep < 8; ++rep) {
        parallel_for(pool, 64, [&total](std::size_t) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(total.load(), 4 * 8 * 64);
}

}  // namespace
}  // namespace bt
