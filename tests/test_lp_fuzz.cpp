// Differential LP fuzz suite (labeled `slow` in CMake; CI runs it in the
// Release bench-smoke lane and, with a reduced case count, under
// ASan/UBSan).
//
// A seeded generator produces feasible, infeasible, unbounded, degenerate,
// near-rank-deficient and mixed-sense programs.  The exact rational
// simplex (exact_simplex.hpp) is the one reference: the sparse engine --
// cold under every pricing x dual-row-rule combination, and through the
// append_row / set_row_rhs dual-simplex replays of IncrementalSimplex --
// must match its status and optimum, and its duals must satisfy exact
// complementary slackness against the float primal.  A direct BasisLu
// harness additionally pins Forrest-Tomlin FTRAN/BTRAN against a
// from-scratch refactorization after every pivot, and a 120-node
// cutting-plane run asserts the incremental and rebuild masters agree
// bitwise.
//
// Case count scales with BT_FUZZ_CASES (default 200).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "lp/basis_lu.hpp"
#include "lp/exact_simplex.hpp"
#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"
#include "lp/simplex.hpp"
#include "platform/random_generator.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_port_rows.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

std::size_t fuzz_cases() {
  if (const char* env = std::getenv("BT_FUZZ_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 200;
}

/// The oracle's verdict in solve_lp's terms.
LpStatus lp_status(ExactStatus status) {
  switch (status) {
    case ExactStatus::kOptimal: return LpStatus::kOptimal;
    case ExactStatus::kUnbounded: return LpStatus::kUnbounded;
    case ExactStatus::kInfeasible: return LpStatus::kInfeasible;
  }
  return LpStatus::kIterationLimit;
}

/// Generator classes, cycled by case index.
enum class FuzzClass {
  kFeasible,        // random <= rows, b >= 0
  kDegenerate,      // many zero right-hand sides: ties everywhere
  kRankDeficient,   // duplicated / scaled rows and columns
  kUnbounded,       // some columns with no positive entries
  kMixedSense,      // >= and = rows: infeasible cases arise naturally
};

LpProblem generate(Rng& rng, FuzzClass cls) {
  const std::size_t vars = 1 + rng.index(7);
  const std::size_t rows = 1 + rng.index(7);

  // Integer coefficients in [-3, 6] (class-dependent sign policy) stay
  // exactly representable on both sides of the differential.
  std::vector<std::vector<int>> a(rows, std::vector<int>(vars, 0));
  std::vector<int> b(rows, 0), c(vars, 0);
  for (std::size_t j = 0; j < vars; ++j) c[j] = rng.uniform_int(0, 9);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < vars; ++j) {
      const bool negatives = cls == FuzzClass::kUnbounded || cls == FuzzClass::kMixedSense;
      a[i][j] = negatives ? rng.uniform_int(-3, 4) : rng.uniform_int(0, 6);
    }
    b[i] = cls == FuzzClass::kDegenerate && rng.bernoulli(0.6) ? 0 : rng.uniform_int(0, 15);
  }
  if (cls == FuzzClass::kRankDeficient && rows >= 2) {
    // Duplicate a row (scaled) and, sometimes, a column.
    const std::size_t src = rng.index(rows - 1);
    const int scale = 1 + static_cast<int>(rng.index(3));
    for (std::size_t j = 0; j < vars; ++j) a[rows - 1][j] = scale * a[src][j];
    b[rows - 1] = scale * b[src];
    if (vars >= 2 && rng.bernoulli(0.5)) {
      const std::size_t jsrc = rng.index(vars - 1);
      for (std::size_t i = 0; i < rows; ++i) a[i][vars - 1] = a[i][jsrc];
      c[vars - 1] = c[jsrc];
    }
  }
  if (cls == FuzzClass::kUnbounded) {
    // Give one profitable column only non-positive entries.
    const std::size_t j = rng.index(vars);
    for (std::size_t i = 0; i < rows; ++i) a[i][j] = -std::abs(a[i][j]);
    c[j] = 1 + rng.uniform_int(0, 5);
  }

  LpProblem lp(Objective::kMaximize);
  for (std::size_t j = 0; j < vars; ++j) lp.add_variable(static_cast<double>(c[j]));
  for (std::size_t i = 0; i < rows; ++i) {
    RowSense sense = RowSense::kLessEqual;
    if (cls == FuzzClass::kMixedSense) {
      const std::size_t pick = rng.index(4);
      sense = pick == 0 ? RowSense::kGreaterEqual
              : pick == 1 ? RowSense::kEqual
                          : RowSense::kLessEqual;
    }
    std::vector<LpTerm> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      if (a[i][j] != 0) terms.push_back({j, static_cast<double>(a[i][j])});
    }
    lp.add_constraint(terms, sense, static_cast<double>(b[i]));
  }
  return lp;
}

// --------------------------------------------------- engine differential --

TEST(LpFuzz, EnginesAgreeWithExactSimplexOnObjectivesAndDuals) {
  Rng rng(0xF022);
  const std::size_t cases = fuzz_cases();
  std::size_t optimal = 0, unbounded = 0, infeasible = 0;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const FuzzClass cls = static_cast<FuzzClass>(trial % 5);
    const LpProblem lp = generate(rng, cls);

    SimplexOptions options;
    options.refactor_period = 1 + rng.index(64);
    const LpSolution ft = solve_lp(lp, options);
    const ExactSolution exact = solve_exact_lp(lp);
    ASSERT_EQ(ft.status, lp_status(exact.status)) << "trial " << trial;
    if (exact.status == ExactStatus::kUnbounded) {
      ++unbounded;
      continue;
    }
    if (exact.status == ExactStatus::kInfeasible) {
      ++infeasible;
      continue;
    }
    ++optimal;
    EXPECT_NEAR(ft.objective, exact.objective.to_double(), 1e-7) << "trial " << trial;
    EXPECT_LE(lp.max_violation(ft.x), 1e-7) << "trial " << trial;

    // Duals of a (possibly degenerate) optimum need not be unique, so the
    // float duals are validated structurally -- sign by row sense, dual
    // feasibility, strong duality -- and the exact duals via complementary
    // slackness against the float primal (valid between *any* optimal
    // primal-dual pair).
    double dual_objective = 0.0;
    Rational exact_dual_objective(0);
    std::vector<double> reduced(lp.num_variables());
    std::vector<Rational> exact_reduced(lp.num_variables());
    for (std::size_t j = 0; j < lp.num_variables(); ++j) {
      reduced[j] = lp.objective_coeff(j);
      exact_reduced[j] = Rational::from_double(reduced[j]);
    }
    for (std::size_t i = 0; i < lp.num_constraints(); ++i) {
      const LpProblem::Row& row = lp.row(i);
      if (row.sense == RowSense::kLessEqual) {
        EXPECT_GE(ft.duals[i], -1e-7) << "trial " << trial << " row " << i;
      } else if (row.sense == RowSense::kGreaterEqual) {
        EXPECT_LE(ft.duals[i], 1e-7) << "trial " << trial << " row " << i;
      }
      dual_objective += ft.duals[i] * row.rhs;
      exact_dual_objective += exact.duals[i] * Rational::from_double(row.rhs);
      for (const LpTerm& t : row.terms) {
        reduced[t.var] -= ft.duals[i] * t.coeff;
        exact_reduced[t.var] -= exact.duals[i] * Rational::from_double(t.coeff);
      }
    }
    EXPECT_NEAR(dual_objective, ft.objective, 1e-6) << "trial " << trial;
    EXPECT_EQ(exact_dual_objective, exact.objective) << "trial " << trial;
    for (std::size_t j = 0; j < lp.num_variables(); ++j) {
      EXPECT_LE(reduced[j], 1e-6) << "trial " << trial << " col " << j;
      // Exact complementary slackness: a variable strictly positive in the
      // float optimum prices to exactly zero under the exact duals.
      if (ft.x[j] > 1e-6) {
        EXPECT_TRUE(exact_reduced[j].is_zero())
            << "trial " << trial << " col " << j << ": exact reduced cost "
            << exact_reduced[j].to_double() << " with x = " << ft.x[j];
      }
    }
  }
  // The generator must exercise every terminal state.
  EXPECT_GT(optimal, cases / 10);
  EXPECT_GT(unbounded, 0u);
  EXPECT_GT(infeasible, 0u);
}

// ------------------------------------- pricing x dual row rule matrix --

/// Every pricing x dual-row-rule combination the engine supports; the dual
/// row rule acts only in dual phases (exercised by the append_row matrix
/// below).
struct EngineCombo {
  PricingRule pricing;
  DualRowRule dual_rule;
};

const EngineCombo kCombos[] = {
    {PricingRule::kDantzig, DualRowRule::kDevex},
    {PricingRule::kDantzig, DualRowRule::kSteepestEdge},
    {PricingRule::kDevex, DualRowRule::kDevex},
    {PricingRule::kDevex, DualRowRule::kSteepestEdge},
};

SimplexOptions combo_options(const EngineCombo& combo, std::size_t refactor_period) {
  SimplexOptions options;
  options.pricing = combo.pricing;
  options.dual_row_rule = combo.dual_rule;
  options.refactor_period = refactor_period;
  return options;
}

TEST(LpFuzz, PricingAndSolveModeMatrixAgreesWithExactSimplex) {
  // Cold solves across the full generator mix (feasible / degenerate /
  // near-rank-deficient / unbounded / mixed-sense): every combination must
  // match the exact rational simplex on status and optimum.
  Rng rng(0x9A7E);
  const std::size_t cases = fuzz_cases() / 2;
  std::size_t optimal = 0;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const FuzzClass cls = static_cast<FuzzClass>(trial % 5);
    const LpProblem lp = generate(rng, cls);
    const std::size_t period = 1 + rng.index(64);
    const ExactSolution exact = solve_exact_lp(lp);
    if (exact.status == ExactStatus::kOptimal) ++optimal;
    for (std::size_t c = 0; c < std::size(kCombos); ++c) {
      const LpSolution solved = solve_lp(lp, combo_options(kCombos[c], period));
      ASSERT_EQ(solved.status, lp_status(exact.status)) << "trial " << trial << " combo " << c;
      if (solved.status != LpStatus::kOptimal) continue;
      EXPECT_NEAR(solved.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial << " combo " << c;
      EXPECT_LE(lp.max_violation(solved.x), 1e-7) << "trial " << trial << " combo " << c;
    }
  }
  EXPECT_GT(optimal, cases / 10);
}

/// One row of an append_row replay.
struct AppendedRow {
  std::vector<LpTerm> terms;
  RowSense sense;
  double rhs;
};

/// `base` plus the first `count` appended rows, as one cold program.
LpProblem with_appended(const LpProblem& base, const std::vector<AppendedRow>& appends,
                        std::size_t count) {
  LpProblem full = base;
  for (std::size_t k = 0; k < count; ++k) {
    full.add_constraint(appends[k].terms, appends[k].sense, appends[k].rhs);
  }
  return full;
}

TEST(LpFuzz, RowAppendMatrixAgreesAcrossDualRowRulesAndSolveModes) {
  // The dual row rules act only in the dual re-optimization after appended
  // rows: replay random append_row sequences under every combination and
  // pin them against the exact simplex (degenerate zero right-hand sides
  // included, so weighted row selection hits ties).
  Rng rng(0xD0A2);
  const std::size_t cases = fuzz_cases() / 4;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const std::size_t vars = 2 + rng.index(5);
    const std::size_t base_rows = 1 + rng.index(3);
    const std::size_t extra_rows = 1 + rng.index(4);

    LpProblem base(Objective::kMaximize);
    for (std::size_t j = 0; j < vars; ++j) {
      base.add_variable(static_cast<double>(rng.uniform_int(0, 9)));
    }
    auto random_row = [&]() {
      std::vector<LpTerm> terms;
      for (std::size_t j = 0; j < vars; ++j) {
        const int aij = rng.uniform_int(-2, 5);
        if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
      }
      return terms;
    };
    for (std::size_t i = 0; i < base_rows; ++i) {
      const std::vector<LpTerm> terms = random_row();
      base.add_constraint(terms, RowSense::kLessEqual,
                          static_cast<double>(rng.uniform_int(0, 12)));
    }
    // The appended tail, shared across every engine combination.
    std::vector<AppendedRow> appends;
    for (std::size_t k = 0; k < extra_rows; ++k) {
      AppendedRow a;
      a.terms = random_row();
      a.sense = rng.bernoulli(0.25) ? RowSense::kGreaterEqual : RowSense::kLessEqual;
      // Zero right-hand sides force degenerate dual pivots.
      a.rhs = rng.bernoulli(0.3)
                  ? 0.0
                  : static_cast<double>(
                        rng.uniform_int(a.sense == RowSense::kGreaterEqual ? 0 : -4, 10));
      appends.push_back(std::move(a));
    }
    std::vector<ExactSolution> exact;
    for (std::size_t k = 1; k <= appends.size(); ++k) {
      exact.push_back(solve_exact_lp(with_appended(base, appends, k)));
    }

    for (std::size_t combo_idx = 0; combo_idx < std::size(kCombos); ++combo_idx) {
      IncrementalSimplex incremental(base, combo_options(kCombos[combo_idx], 16));
      LpSolution inc = incremental.solve();
      for (std::size_t k = 0; k < appends.size(); ++k) {
        incremental.append_row(appends[k].terms, appends[k].sense, appends[k].rhs);
        inc = inc.status == LpStatus::kOptimal ? incremental.reoptimize_dual()
                                               : incremental.solve();
        ASSERT_EQ(inc.status, lp_status(exact[k].status))
            << "trial " << trial << " combo " << combo_idx << " append " << k;
        if (inc.status == LpStatus::kOptimal) {
          EXPECT_NEAR(inc.objective, exact[k].objective.to_double(), 1e-6)
              << "trial " << trial << " combo " << combo_idx << " append " << k;
          EXPECT_LE(with_appended(base, appends, k + 1).max_violation(inc.x), 1e-6)
              << "trial " << trial << " combo " << combo_idx << " append " << k;
        }
      }
    }
  }
}

// ----------------------------------------- dual simplex / append_row path --

TEST(LpFuzz, RowAppendReoptimizeDualMatchesColdSolves) {
  Rng rng(0xD0A1);
  const std::size_t cases = fuzz_cases();
  std::size_t appended_total = 0, infeasible_after_append = 0;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const std::size_t vars = 2 + rng.index(6);
    const std::size_t base_rows = 1 + rng.index(3);
    const std::size_t extra_rows = 1 + rng.index(5);

    LpProblem full(Objective::kMaximize);
    for (std::size_t j = 0; j < vars; ++j) {
      full.add_variable(static_cast<double>(rng.uniform_int(0, 9)));
    }
    auto random_row = [&]() {
      std::vector<LpTerm> terms;
      for (std::size_t j = 0; j < vars; ++j) {
        const int aij = rng.uniform_int(-2, 6);
        if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
      }
      return terms;
    };
    for (std::size_t i = 0; i < base_rows; ++i) {
      const std::vector<LpTerm> terms = random_row();
      full.add_constraint(terms, RowSense::kLessEqual,
                          static_cast<double>(rng.uniform_int(0, 12)));
    }

    IncrementalSimplex incremental(full);
    LpSolution inc = incremental.solve();
    for (std::size_t k = 0; k < extra_rows; ++k) {
      const std::vector<LpTerm> terms = random_row();
      // Appended rows carry any sign of rhs and either inequality sense --
      // the dual phase must digest both.
      const RowSense sense =
          rng.bernoulli(0.25) ? RowSense::kGreaterEqual : RowSense::kLessEqual;
      const auto rhs = static_cast<double>(
          rng.uniform_int(sense == RowSense::kGreaterEqual ? 0 : -4, 10));
      incremental.append_row(terms, sense, rhs);
      full.add_constraint(terms, sense, rhs);
      ++appended_total;
      // reoptimize_dual requires the previous solve to have ended optimal;
      // after an infeasible status, re-solving goes through solve().
      inc = inc.status == LpStatus::kOptimal ? incremental.reoptimize_dual()
                                             : incremental.solve();

      const ExactSolution exact = solve_exact_lp(full);
      ASSERT_EQ(inc.status, lp_status(exact.status))
          << "trial " << trial << " append " << k << ": incremental "
          << to_string(inc.status) << " vs exact " << to_string(lp_status(exact.status));
      if (inc.status == LpStatus::kOptimal) {
        EXPECT_NEAR(inc.objective, exact.objective.to_double(), 1e-6)
            << "trial " << trial << " append " << k;
        EXPECT_LE(full.max_violation(inc.x), 1e-6) << "trial " << trial << " append " << k;
        // Appended rows are priced through LpSolution::duals like built
        // rows: strong duality over the full row set.
        double dual_objective = 0.0;
        for (std::size_t i = 0; i < full.num_constraints(); ++i) {
          dual_objective += inc.duals[i] * full.row(i).rhs;
        }
        EXPECT_NEAR(dual_objective, inc.objective, 1e-5)
            << "trial " << trial << " append " << k;
      } else {
        ++infeasible_after_append;
      }
    }
  }
  EXPECT_GT(appended_total, 2 * cases);
  EXPECT_GT(infeasible_after_append, 0u);  // the generator must hit kInfeasible
}

TEST(LpFuzz, SetRowRhsMatchesColdSolves) {
  Rng rng(0x5E7A);
  const std::size_t cases = fuzz_cases() / 2;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const std::size_t vars = 2 + rng.index(5);
    const std::size_t nrows = 2 + rng.index(4);
    std::vector<double> c(vars);
    std::vector<std::vector<LpTerm>> rows(nrows);
    std::vector<double> rhs(nrows);
    LpProblem base(Objective::kMaximize);
    for (std::size_t j = 0; j < vars; ++j) {
      c[j] = rng.uniform_int(1, 8);
      base.add_variable(c[j]);
    }
    for (std::size_t i = 0; i < nrows; ++i) {
      for (std::size_t j = 0; j < vars; ++j) {
        const int aij = rng.uniform_int(0, 5);
        if (aij != 0) rows[i].push_back({j, static_cast<double>(aij)});
      }
      rhs[i] = rng.uniform_int(1, 12);
      base.add_constraint(rows[i], RowSense::kLessEqual, rhs[i]);
    }
    IncrementalSimplex incremental(base);
    if (incremental.solve().status != LpStatus::kOptimal) continue;  // e.g. unbounded
    for (int change = 0; change < 4; ++change) {
      const std::size_t row = rng.index(nrows);
      rhs[row] = rng.uniform_int(0, 12);
      incremental.set_row_rhs(row, rhs[row]);
      const LpSolution inc = incremental.reoptimize_dual();
      LpProblem full(Objective::kMaximize);
      for (std::size_t j = 0; j < vars; ++j) full.add_variable(c[j]);
      for (std::size_t i = 0; i < nrows; ++i) {
        full.add_constraint(rows[i], RowSense::kLessEqual, rhs[i]);
      }
      const ExactSolution exact = solve_exact_lp(full);
      ASSERT_EQ(inc.status, lp_status(exact.status)) << "trial " << trial << " change " << change;
      if (inc.status == LpStatus::kOptimal) {
        EXPECT_NEAR(inc.objective, exact.objective.to_double(), 1e-6)
            << "trial " << trial << " change " << change;
      }
    }
  }
}

// rhs ranging on the rows the SSB masters actually emit, under the
// unidirectional port model: one combined send+receive row per node (see
// ssb_port_rows.hpp), so every arc's time coefficient appears on BOTH
// endpoint rows of the same row family -- a coupling the bidirectional
// fuzz above never produces.  Ranging a port row models per-node duty
// cycling (a node allowed only a fraction of the period on its port).
TEST(LpFuzz, SetRowRhsUnidirectionalPortRowsMatchesColdSolves) {
  Rng rng(0xC0FFEE);
  const std::size_t cases = fuzz_cases() / 2;
  std::size_t ranged_total = 0;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    RandomPlatformConfig config;
    config.num_nodes = 6 + rng.index(8);
    config.density = 0.3;
    Rng platform_rng(rng.uniform_int(1, 1 << 20));
    const Platform platform = generate_random_platform(config, platform_rng);
    const Digraph& g = platform.graph();
    const std::size_t arcs = platform.num_edges();

    // The cutting-plane master shape: vars n_e then TP, unidirectional
    // port rows first, then a few random cut rows  TP - sum_S n_e <= 0
    // (any nonempty cut bounds TP, since the port rows bound every n_e).
    std::vector<std::vector<EdgeId>> cuts;
    const std::size_t num_cuts = 1 + rng.index(4);
    for (std::size_t k = 0; k < num_cuts; ++k) {
      std::vector<EdgeId> cut;
      for (EdgeId e = 0; e < arcs; ++e) {
        if (rng.bernoulli(0.4)) cut.push_back(e);
      }
      if (cut.empty()) cut.push_back(static_cast<EdgeId>(rng.index(arcs)));
      cuts.push_back(std::move(cut));
    }
    // Combined-row rhs per node, mutated by the ranging steps below.
    std::vector<double> port_rhs;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!g.out_edges(u).empty() || !g.in_edges(u).empty()) port_rhs.push_back(1.0);
    }

    const auto add_cut_rows = [&](LpProblem& lp, std::size_t tp_var) {
      for (const auto& cut : cuts) {
        std::vector<LpTerm> row{{tp_var, 1.0}};
        for (EdgeId e : cut) row.push_back({e, -1.0});
        lp.add_constraint(row, RowSense::kLessEqual, 0.0);
      }
    };
    // The incremental base is built through the masters' own emission
    // (add_port_rows, rhs pinned at 1); the cold reference replicates the
    // combined rows by hand so it can carry the ranged rhs values.
    LpProblem base(Objective::kMaximize);
    for (EdgeId e = 0; e < arcs; ++e) base.add_variable(0.0);
    const std::size_t tp_var = base.add_variable(1.0);
    add_port_rows(base, platform, PortModel::kUnidirectional, [](EdgeId e) { return e; });
    ASSERT_EQ(base.num_constraints(), port_rhs.size()) << "trial " << trial;
    add_cut_rows(base, tp_var);

    const auto build_cold = [&](const std::vector<double>& rhs_now) {
      LpProblem lp(Objective::kMaximize);
      for (EdgeId e = 0; e < arcs; ++e) lp.add_variable(0.0);
      const std::size_t tp = lp.add_variable(1.0);
      std::size_t next = 0;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        std::vector<LpTerm> row;
        for (EdgeId e : g.out_edges(u)) row.push_back({e, platform.edge_time(e)});
        for (EdgeId e : g.in_edges(u)) row.push_back({e, platform.edge_time(e)});
        if (!row.empty()) lp.add_constraint(row, RowSense::kLessEqual, rhs_now[next++]);
      }
      add_cut_rows(lp, tp);
      return lp;
    };

    IncrementalSimplex incremental(base);
    LpSolution inc = incremental.solve();
    ASSERT_EQ(inc.status, LpStatus::kOptimal) << "trial " << trial;
    for (int change = 0; change < 5; ++change) {
      const std::size_t row = rng.index(port_rhs.size());
      port_rhs[row] = rng.uniform_real(0.25, 1.4);
      incremental.set_row_rhs(row, port_rhs[row]);
      inc = incremental.reoptimize_dual();
      ++ranged_total;

      const LpSolution cold = solve_lp(build_cold(port_rhs));
      // n = 0, TP = 0 is always feasible and every cut row bounds TP.
      ASSERT_EQ(inc.status, LpStatus::kOptimal) << "trial " << trial << " change " << change;
      ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial << " change " << change;
      EXPECT_NEAR(inc.objective, cold.objective,
                  1e-6 * std::max(1.0, std::abs(cold.objective)))
          << "trial " << trial << " change " << change;
      // Port duals price the ranging direction: strong duality over the
      // combined rows plus the (rhs = 0) cut rows.
      double dual_objective = 0.0;
      for (std::size_t i = 0; i < port_rhs.size(); ++i) {
        dual_objective += inc.duals[i] * port_rhs[i];
      }
      EXPECT_NEAR(dual_objective, inc.objective,
                  1e-5 * std::max(1.0, std::abs(inc.objective)))
          << "trial " << trial << " change " << change;
    }
  }
  EXPECT_GE(ranged_total, 5 * cases);
}

// ------------------------------------------------- BasisLu differential --

TEST(LpFuzz, ForrestTomlinMatchesFreshFactorizationAfterEveryPivot) {
  Rng rng(0xBA51);
  const std::size_t cases = fuzz_cases() / 4;
  for (std::size_t trial = 0; trial < cases; ++trial) {
    const std::size_t m = 3 + rng.index(14);
    // Columns of a diagonally dominant (hence nonsingular) sparse basis.
    std::vector<std::vector<std::uint32_t>> col_rows(m);
    std::vector<std::vector<double>> col_vals(m);
    auto random_column = [&](std::size_t diag_pos) {
      std::vector<std::uint32_t> r;
      std::vector<double> v;
      r.push_back(static_cast<std::uint32_t>(diag_pos));
      v.push_back(4.0 + rng.uniform_real(0.0, 4.0));
      for (std::size_t i = 0; i < m; ++i) {
        if (i != diag_pos && rng.bernoulli(0.2)) {
          r.push_back(static_cast<std::uint32_t>(i));
          v.push_back(rng.uniform_real(-1.0, 1.0));
        }
      }
      return std::make_pair(r, v);
    };
    for (std::size_t k = 0; k < m; ++k) {
      auto col = random_column(k);
      col_rows[k] = std::move(col.first);
      col_vals[k] = std::move(col.second);
    }
    auto views = [&]() {
      std::vector<SparseColumnView> v(m);
      for (std::size_t k = 0; k < m; ++k) {
        v[k] = SparseColumnView{col_rows[k].data(), col_vals[k].data(), col_rows[k].size()};
      }
      return v;
    };

    BasisLu ft, fresh;
    ASSERT_TRUE(ft.factorize(m, views())) << "trial " << trial;

    ScatteredVector xf, xr;
    auto compare_solves = [&](const char* what, std::size_t pivot_no) {
      ASSERT_TRUE(fresh.factorize(m, views())) << what;
      for (int probe = 0; probe < 3; ++probe) {
        xf.reset(m);
        xr.reset(m);
        for (std::size_t i = 0; i < m; ++i) {
          if (rng.bernoulli(0.4)) {
            const double value = rng.uniform_real(-2.0, 2.0);
            xf.push(static_cast<std::uint32_t>(i), value);
            xr.push(static_cast<std::uint32_t>(i), value);
          }
        }
        const bool do_btran = probe % 2 == 1;
        if (do_btran) {
          ft.btran(xf);
          fresh.btran(xr);
        } else {
          ft.ftran(xf);
          fresh.ftran(xr);
        }
        // This harness deliberately never refactorizes (production does,
        // every refactor_period pivots), so the comparison tolerance is
        // relative to the solution magnitude to absorb the conditioning of
        // long random pivot chains.
        double scale = 1.0;
        for (std::size_t i = 0; i < m; ++i) scale = std::max(scale, std::abs(xr.value[i]));
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_NEAR(xf.value[i], xr.value[i], 1e-7 * scale)
              << what << " trial " << trial << " pivot " << pivot_no << " "
              << (do_btran ? "btran" : "ftran") << " pos " << i;
        }
      }
    };
    compare_solves("fresh", 0);

    // Random basis changes through Forrest-Tomlin updates.
    const std::size_t pivots = 1 + rng.index(2 * m);
    for (std::size_t pv = 1; pv <= pivots; ++pv) {
      const std::size_t leave = rng.index(m);
      auto entering = random_column(rng.index(m));
      ScatteredVector w;
      w.reset(m);
      for (std::size_t t = 0; t < entering.first.size(); ++t) {
        w.push(entering.first[t], entering.second[t]);
      }
      ft.ftran(w);
      if (std::abs(w.value[leave]) < 1e-6) continue;  // unsafe pivot: skip
      ASSERT_TRUE(ft.update(leave, w)) << "trial " << trial << " pivot " << pv;
      col_rows[leave] = std::move(entering.first);
      col_vals[leave] = std::move(entering.second);
      compare_solves("updated", pv);
    }
  }
}

// ------------------------------------------ 120-node cutting-plane paths --

TEST(LpFuzz, CuttingPlaneIncrementalAndRebuildBitwiseAgreeAt120Nodes) {
  Rng rng(120 * 104729);
  RandomPlatformConfig config;
  config.num_nodes = 120;
  config.density = 0.12;
  const Platform platform = generate_random_platform(config, rng);

  SsbCuttingPlaneOptions incremental;
  SsbCuttingPlaneOptions rebuild;
  rebuild.incremental_master = false;

  const SsbSolution a = solve_ssb_cutting_plane(platform, incremental);
  const SsbSolution b = solve_ssb_cutting_plane(platform, rebuild);
  ASSERT_TRUE(a.solved);
  ASSERT_TRUE(b.solved);
  // The reported throughput is re-derived with cold solves and rounded to
  // the certificate's resolution, so the two paths agree bitwise even when
  // degenerate min-cut ties let their pools differ in equivalent cuts.
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_GT(a.throughput, 0.0);
  ASSERT_EQ(a.edge_load.size(), b.edge_load.size());
  for (std::size_t e = 0; e < a.edge_load.size(); ++e) {
    EXPECT_NEAR(a.edge_load[e], b.edge_load[e], 1e-8) << "edge " << e;
  }
}

}  // namespace
}  // namespace bt
