// Google-benchmark micro benchmarks: runtime scaling of the substrates (max
// flow, simplex, SSB cutting plane) and of every tree heuristic.

#include <benchmark/benchmark.h>

#include "core/registry.hpp"
#include "core/throughput.hpp"
#include "core/tree_optimizer.hpp"
#include "flow/maxflow.hpp"
#include "graph/min_arborescence.hpp"
#include "lp/simplex.hpp"
#include "platform/random_generator.hpp"
#include "sim/pipeline_simulator.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/rng.hpp"

namespace {

bt::Platform make_platform(std::size_t n, double density, std::uint64_t seed = 1) {
  bt::Rng rng(seed);
  bt::RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = density;
  return bt::generate_random_platform(config, rng);
}

void BM_RandomPlatformGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_platform(n, 0.12, ++seed));
  }
}
BENCHMARK(BM_RandomPlatformGeneration)->Arg(10)->Arg(30)->Arg(50);

void BM_MaxFlow(benchmark::State& state) {
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  std::vector<double> capacity(platform.num_edges(), 1.0);
  bt::MaxFlowSolver solver(platform.graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.solve(0, static_cast<bt::NodeId>(platform.num_nodes() - 1), capacity));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(10)->Arg(30)->Arg(50)->Arg(65);

void BM_Simplex(benchmark::State& state) {
  // Random dense LP: max c.x, A x <= b with `rows` constraints over 20 vars.
  const auto rows = static_cast<std::size_t>(state.range(0));
  bt::Rng rng(7);
  bt::LpProblem lp(bt::Objective::kMaximize);
  for (int j = 0; j < 20; ++j) lp.add_variable(rng.uniform_real(0.0, 2.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<bt::LpTerm> terms;
    for (std::size_t j = 0; j < 20; ++j) {
      terms.push_back({j, rng.uniform_real(0.1, 1.0)});
    }
    lp.add_constraint(terms, bt::RowSense::kLessEqual, rng.uniform_real(5.0, 20.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::solve_lp(lp));
  }
}
BENCHMARK(BM_Simplex)->Arg(20)->Arg(60)->Arg(120);

void BM_SsbCuttingPlane(benchmark::State& state) {
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::solve_ssb_cutting_plane(platform));
  }
}
BENCHMARK(BM_SsbCuttingPlane)->Arg(10)->Arg(20)->Arg(30);

void BM_SsbColumnGeneration(benchmark::State& state) {
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::solve_ssb_column_generation(platform));
  }
}
BENCHMARK(BM_SsbColumnGeneration)->Arg(10)->Arg(20)->Arg(30)->Arg(50)->Arg(65);

void BM_MinArborescence(benchmark::State& state) {
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  const auto& weights = platform.edge_times();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::min_arborescence(platform.graph(), 0, weights));
  }
}
BENCHMARK(BM_MinArborescence)->Arg(10)->Arg(30)->Arg(65);

void BM_Heuristic(benchmark::State& state, const std::string& name) {
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  const auto& spec = bt::find_heuristic(name);
  std::vector<double> loads;
  const std::vector<double>* loads_ptr = nullptr;
  if (spec.needs_lp_loads) {
    loads = bt::solve_ssb_cutting_plane(platform).edge_load;
    loads_ptr = &loads;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.build(platform, loads_ptr));
  }
}
BENCHMARK_CAPTURE(BM_Heuristic, prune_simple, "prune_simple")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, prune_degree, "prune_degree")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, grow_tree, "grow_tree")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, binomial, "binomial")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, lp_prune, "lp_prune")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, lp_grow_tree, "lp_grow_tree")->Arg(30)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, multiport_grow, "multiport_grow_tree")->Arg(30)->Arg(50);

void BM_TreeOptimizer(benchmark::State& state) {
  // Local search on the weakest heuristic's tree: the densest source of
  // accepted moves, so this tracks the incremental-bottleneck rewrite
  // (delta-maintained loads + top-period table instead of O(n) rescans
  // per candidate move).
  const auto platform = make_platform(static_cast<std::size_t>(state.range(0)), 0.12);
  const auto tree = bt::find_heuristic("prune_simple").build(platform, nullptr);
  std::size_t moves = 0;
  for (auto _ : state) {
    const auto r = bt::optimize_tree_one_port(platform, tree);
    moves = r.moves;
    benchmark::DoNotOptimize(r);
  }
  state.counters["moves"] = static_cast<double>(moves);
}
BENCHMARK(BM_TreeOptimizer)->Arg(30)->Arg(50)->Arg(65)->Arg(100);

void BM_StaMakespan(benchmark::State& state) {
  // kHeaviestSubtree exercises the subtree-weight precomputation (one
  // bottom-up pass; formerly a memoized recursion called from inside the
  // sort comparator, with deep-recursion risk on chain trees).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto platform = make_platform(n, 0.12);
  const auto tree = bt::find_heuristic("grow_tree").build(platform, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bt::sta_makespan(platform, tree, 1.0, bt::ChildOrder::kHeaviestSubtree));
  }
}
BENCHMARK(BM_StaMakespan)->Arg(30)->Arg(100)->Arg(300);

void BM_StaMakespanChain(benchmark::State& state) {
  // Worst case for the old recursive subtree weights: a pure chain.
  const auto n = static_cast<std::size_t>(state.range(0));
  bt::Digraph g(n);
  std::vector<bt::LinkCost> costs;
  for (bt::NodeId v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1);
    costs.push_back({0.0, 0.5});
  }
  const bt::Platform platform(std::move(g), std::move(costs), 1.0, 0);
  bt::BroadcastTree tree;
  tree.root = 0;
  for (bt::EdgeId e = 0; e < platform.num_edges(); ++e) tree.edges.push_back(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bt::sta_makespan(platform, tree, 1.0, bt::ChildOrder::kHeaviestSubtree));
  }
}
BENCHMARK(BM_StaMakespanChain)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PipelineSimulator(benchmark::State& state) {
  const auto platform = make_platform(30, 0.12);
  const auto tree = bt::find_heuristic("grow_tree").build(platform, nullptr);
  const auto slices = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::simulate_pipelined_broadcast(platform, tree, slices));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slices * 29));
}
BENCHMARK(BM_PipelineSimulator)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
