// Cross-solver agreement for the steady-state broadcast optimum.
//
// The three solvers -- direct program (2), cutting plane (incremental and
// rebuild master paths) and arborescence column generation -- must compute
// the same optimal throughput under both port models, on hand-built
// platforms with dyadic arc times the value is additionally pinned against
// an *exact rational* solve of the projected cut LP (every source cut
// enumerated), which in particular is the regression test for the old
// cutting-plane bug of folding the 1e-6 anti-degeneracy load penalty into
// the reported objective (a ~1e-5 downward bias, vs the 1e-9 agreement
// asserted here).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/exact_simplex.hpp"
#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"
#include "platform/platform.hpp"
#include "platform/random_generator.hpp"
#include "platform/tiers_generator.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_direct.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

/// Exact optimum of the projected SSB cut LP: maximize TP subject to the
/// port rows and one row per source-containing proper subset S
/// (sum over arcs leaving S of n_e >= TP).  Exponential in p; for the
/// small test platforms that is the point -- no separation, no rounding
/// (the dyadic arc times k/16 convert to rationals exactly).
Rational exact_ssb_optimum(const Platform& platform, PortModel model) {
  const Digraph& g = platform.graph();
  const std::size_t p = g.num_nodes();
  const std::size_t m = g.num_edges();
  const NodeId source = platform.source();
  EXPECT_LE(p, 16u) << "exact reference is exponential in nodes";

  LpProblem lp(Objective::kMaximize);  // variables: n_e (m of them), then TP
  for (EdgeId e = 0; e < m; ++e) lp.add_variable(0.0);
  const std::size_t tp = lp.add_variable(1.0);

  for (NodeId u = 0; u < p; ++u) {
    std::vector<LpTerm> out_row, in_row;
    for (EdgeId e : g.out_edges(u)) out_row.push_back({e, platform.edge_time(e)});
    for (EdgeId e : g.in_edges(u)) in_row.push_back({e, platform.edge_time(e)});
    if (model == PortModel::kBidirectional) {
      lp.add_constraint(out_row, RowSense::kLessEqual, 1.0);
      lp.add_constraint(in_row, RowSense::kLessEqual, 1.0);
    } else {
      out_row.insert(out_row.end(), in_row.begin(), in_row.end());
      lp.add_constraint(out_row, RowSense::kLessEqual, 1.0);
    }
  }
  // Every proper subset S containing the source: TP - sum_{delta+(S)} n_e <= 0.
  for (std::size_t mask = 0; mask < (std::size_t{1} << p); ++mask) {
    if (!(mask & (std::size_t{1} << source))) continue;
    if (mask + 1 == (std::size_t{1} << p)) continue;  // S = V
    std::vector<LpTerm> row{{tp, 1.0}};
    for (EdgeId e = 0; e < m; ++e) {
      const bool from_in = (mask >> g.from(e)) & 1;
      const bool to_in = (mask >> g.to(e)) & 1;
      if (from_in && !to_in) row.push_back({e, -1.0});
    }
    lp.add_constraint(row, RowSense::kLessEqual, 0.0);
  }

  const ExactSolution solution = solve_exact_lp(lp);
  EXPECT_EQ(solution.status, ExactStatus::kOptimal);
  return solution.objective;
}

/// Random strongly-reachable platform with dyadic arc times k/16.
Platform dyadic_platform(Rng& rng, std::size_t p, double extra_arc_prob) {
  Digraph g(p);
  std::vector<LinkCost> costs;
  auto add_arc = [&](NodeId a, NodeId b) {
    g.add_edge(a, b);
    costs.push_back({0.0, static_cast<double>(rng.uniform_int(1, 32)) / 16.0});
  };
  for (NodeId v = 1; v < p; ++v) add_arc(static_cast<NodeId>(rng.index(v)), v);  // spanning
  for (NodeId a = 0; a < p; ++a) {
    for (NodeId b = 0; b < p; ++b) {
      if (a != b && rng.bernoulli(extra_arc_prob)) add_arc(a, b);
    }
  }
  return Platform(std::move(g), std::move(costs), 1.0, 0);
}

void expect_all_solvers_agree(const Platform& platform, PortModel model, bool with_exact,
                              const char* label) {
  SsbCuttingPlaneOptions cut_inc;
  cut_inc.port_model = model;
  SsbCuttingPlaneOptions cut_reb = cut_inc;
  cut_reb.incremental_master = false;
  SsbColumnGenOptions colgen;
  colgen.port_model = model;
  SsbDirectOptions direct;
  direct.port_model = model;

  const SsbSolution a = solve_ssb_cutting_plane(platform, cut_inc);
  const SsbSolution b = solve_ssb_cutting_plane(platform, cut_reb);
  const SsbPackingSolution c = solve_ssb_column_generation(platform, colgen);
  const SsbDirectSolution d = solve_ssb_direct(platform, direct);
  ASSERT_TRUE(a.solved && b.solved && c.solved && d.solved) << label;

  const double tol = 1e-9 * std::max(1.0, a.throughput);
  EXPECT_EQ(a.throughput, b.throughput) << label << ": cutting-plane paths not bitwise";
  EXPECT_NEAR(a.throughput, c.throughput, tol) << label;
  EXPECT_NEAR(a.throughput, d.throughput, tol) << label;
  if (with_exact) {
    const double exact = exact_ssb_optimum(platform, model).to_double();
    EXPECT_NEAR(a.throughput, exact, tol) << label << ": vs exact rational";
    EXPECT_NEAR(c.throughput, exact, tol) << label << ": colgen vs exact rational";
    EXPECT_NEAR(d.throughput, exact, tol) << label << ": direct vs exact rational";
  }
}

TEST(SsbAgreement, AllSolversMatchTheExactRationalOptimumBothPortModels) {
  Rng rng(0xE5B);
  for (int trial = 0; trial < 8; ++trial) {
    Rng prng = rng.split();
    const Platform platform = dyadic_platform(prng, 5 + prng.index(2), 0.3);
    for (const PortModel model : {PortModel::kBidirectional, PortModel::kUnidirectional}) {
      expect_all_solvers_agree(
          platform, model, /*with_exact=*/true,
          model == PortModel::kBidirectional ? "dyadic/bidirectional" : "dyadic/unidirectional");
    }
  }
}

TEST(SsbAgreement, ReportedCuttingPlaneThroughputIsUnpenalized) {
  // Regression for the load-penalty bias: on a platform whose loads are
  // heavily serialized, the old code under-reported TP by ~penalty * load.
  // The exact rational reference pins the unpenalized value to 1e-9.
  Rng rng(0xBEEF);
  Rng prng = rng.split();
  const Platform platform = dyadic_platform(prng, 6, 0.45);
  const Rational exact = exact_ssb_optimum(platform, PortModel::kBidirectional);
  const SsbSolution cut = solve_ssb_cutting_plane(platform);
  ASSERT_TRUE(cut.solved);
  EXPECT_NEAR(cut.throughput, exact.to_double(), 1e-9 * std::max(1.0, cut.throughput));
}

TEST(SsbAgreement, RandomPlatformsBothPortModels) {
  Rng rng(0xA5A5);
  for (const std::size_t n : {12, 20}) {
    RandomPlatformConfig config;
    config.num_nodes = n;
    config.density = 0.2;
    Rng prng = rng.split();
    const Platform platform = generate_random_platform(config, prng);
    for (const PortModel model : {PortModel::kBidirectional, PortModel::kUnidirectional}) {
      SsbCuttingPlaneOptions cut_inc;
      cut_inc.port_model = model;
      SsbCuttingPlaneOptions cut_reb = cut_inc;
      cut_reb.incremental_master = false;
      SsbColumnGenOptions colgen;
      colgen.port_model = model;
      const SsbSolution a = solve_ssb_cutting_plane(platform, cut_inc);
      const SsbSolution b = solve_ssb_cutting_plane(platform, cut_reb);
      const SsbPackingSolution c = solve_ssb_column_generation(platform, colgen);
      ASSERT_TRUE(a.solved && b.solved && c.solved);
      EXPECT_EQ(a.throughput, b.throughput) << "n=" << n;
      EXPECT_NEAR(a.throughput, c.throughput, 1e-9 * std::max(1.0, c.throughput)) << "n=" << n;
    }
  }
}

TEST(SsbAgreement, TiersPlatformsBothPortModels) {
  Rng rng(0x7135);
  const Platform platform = generate_tiers_platform(tiers_config_30(), rng);
  for (const PortModel model : {PortModel::kBidirectional, PortModel::kUnidirectional}) {
    SsbCuttingPlaneOptions cut_inc;
    cut_inc.port_model = model;
    SsbCuttingPlaneOptions cut_reb = cut_inc;
    cut_reb.incremental_master = false;
    SsbColumnGenOptions colgen;
    colgen.port_model = model;
    const SsbSolution a = solve_ssb_cutting_plane(platform, cut_inc);
    const SsbSolution b = solve_ssb_cutting_plane(platform, cut_reb);
    const SsbPackingSolution c = solve_ssb_column_generation(platform, colgen);
    ASSERT_TRUE(a.solved && b.solved && c.solved);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_NEAR(a.throughput, c.throughput, 1e-9 * std::max(1.0, c.throughput));
  }
}

TEST(SsbAgreement, UnidirectionalIsNeverFasterThanBidirectional) {
  // Sharing one port for sends and receives only removes capacity.
  Rng rng(0x60D);
  for (int trial = 0; trial < 4; ++trial) {
    Rng prng = rng.split();
    const Platform platform = dyadic_platform(prng, 6, 0.35);
    SsbCuttingPlaneOptions uni;
    uni.port_model = PortModel::kUnidirectional;
    const SsbSolution bi = solve_ssb_cutting_plane(platform);
    const SsbSolution un = solve_ssb_cutting_plane(platform, uni);
    EXPECT_LE(un.throughput, bi.throughput + 1e-9);
  }
}

}  // namespace
}  // namespace bt
