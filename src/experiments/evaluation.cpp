#include "experiments/evaluation.hpp"

#include "core/throughput.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "sched/validate.hpp"
#include "sim/schedule_replay.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bt {

PlatformEvaluation evaluate_platform(const Platform& platform,
                                     const std::vector<HeuristicSpec>& heuristics,
                                     bool multiport_eval, OptimalSolver solver) {
  PlatformEvaluation evaluation;

  // One LP solve per platform feeds both the reference value and the
  // LP-based heuristics (only TP* and the edge loads are consumed here, so
  // either solver serves; see OptimalSolver).
  const SsbSolution optimum = solver == OptimalSolver::kCuttingPlane
                                  ? static_cast<SsbSolution>(solve_ssb_cutting_plane(platform))
                                  : static_cast<SsbSolution>(solve_ssb(platform));
  BT_ASSERT(optimum.solved, "evaluate_platform: SSB solver did not converge");
  evaluation.optimal_throughput = optimum.throughput;

  for (const HeuristicSpec& spec : heuristics) {
    const std::vector<double>* loads = spec.needs_lp_loads ? &optimum.edge_load : nullptr;
    const BroadcastOverlay overlay = spec.build_overlay(platform, loads);
    HeuristicResult result;
    result.name = spec.name;
    result.throughput = multiport_eval ? multiport_throughput(platform, overlay)
                                       : one_port_throughput(platform, overlay);
    result.ratio = evaluation.optimal_throughput > 0.0
                       ? result.throughput / evaluation.optimal_throughput
                       : 0.0;
    evaluation.results.push_back(std::move(result));
  }
  return evaluation;
}

ScheduleSynthesisResult evaluate_schedule_synthesis(const Platform& platform,
                                                    PortModel port_model,
                                                    bool from_solver_columns) {
  ScheduleSynthesisResult result;

  SsbColumnGenOptions solver_options;
  solver_options.port_model = port_model;
  Timer timer;
  const SsbPackingSolution optimum = solve_ssb_column_generation(platform, solver_options);
  result.solve_ms = timer.millis();
  result.optimal_throughput = optimum.throughput;

  TreeDecompositionOptions decomposition_options;
  decomposition_options.use_solution_columns = from_solver_columns;
  timer.reset();
  const TreeDecomposition decomposition =
      decompose_edge_load(platform, optimum, decomposition_options);
  result.decompose_ms = timer.millis();
  result.used_solution_columns = decomposition.from_columns;
  result.num_trees = decomposition.trees.size();

  OrchestrationOptions orchestration;
  orchestration.port_model = port_model;
  timer.reset();
  const PeriodicSchedule schedule =
      orchestrate_one_port(platform, decomposition.trees, orchestration);
  result.orchestrate_ms = timer.millis();
  result.num_rounds = schedule.rounds.size();
  result.designed_throughput = schedule.throughput();

  ScheduleCheckOptions check_options;
  check_options.reference = &optimum;
  result.valid = check_schedule(platform, schedule, check_options).ok;

  timer.reset();
  const ReplayResult replay = replay_schedule(platform, schedule);
  result.replay_ms = timer.millis();
  result.replay_throughput = replay.steady_throughput;
  result.replay_ratio = result.optimal_throughput > 0.0
                            ? result.replay_throughput / result.optimal_throughput
                            : 0.0;
  return result;
}

}  // namespace bt
