#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "platform/random_generator.hpp"
#include "platform/tiers_generator.hpp"
#include "scenario/event_stream.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "sched/validate.hpp"
#include "service/planner_service.hpp"
#include "sim/schedule_replay.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using bt::EdgeId;
using bt::NodeId;

/// Warm re-plan vs cold cutting plane, and the service vs the batch solver.
constexpr double kWarmColdTolerance = 1e-9;
/// Cutting plane vs packing: the packing master stops at 1e-7 relative.
constexpr double kSolverTolerance = 1e-6;
/// A replayed schedule must deliver at least this share of the reported TP*.
constexpr double kReplayFloor = 0.999;
/// No new step starts after this much wall clock, whatever --seconds says,
/// so a pathological slowdown still ends the run in time.
constexpr double kWallCapMs = 120e3;
/// Stated tolerance of the traced run's check that a step's layer self
/// times add up to its end-to-end time.
constexpr double kSelfSumTolerance = 0.10;

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

struct Sizing {
  std::size_t link_nodes = 120;
  std::vector<NodeId> sources{0, 7, 23, 61};
  std::size_t batch_nodes = 100;
  std::size_t setup_reps = 5;
  /// Sampled checks: every k-th step (phase set by the seed).
  std::size_t cold_check_every = 1;
  std::size_t replay_every = 1;
  std::size_t read_batches = 2000;
  std::size_t reads_per_batch = 64;
};

Sizing sizing(const RunOptions& o) {
  Sizing z;
  if (o.smoke) {
    z.link_nodes = 16;
    z.sources = {0, 3, 5, 9};
    z.batch_nodes = 30;
    z.setup_reps = 1;
    z.read_batches = 50;
  } else if (o.workload == "link_replan") {
    z.cold_check_every = 256;
    z.replay_every = 256;
  } else if (o.workload == "link_schedule") {
    z.cold_check_every = 32;
    z.replay_every = 8;
  }
  return z;
}

/// The random platform family of the paper at density 0.12, seeded by size
/// (the n=120 instance is the service benches' platform).
bt::Platform random_platform(std::size_t n) {
  bt::Rng rng(n * 104729);
  bt::RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = 0.12;
  return bt::generate_random_platform(config, rng);
}

bt::Platform tiers_platform(std::size_t n) {
  bt::Rng rng(n * 104729);
  return bt::generate_tiers_platform(bt::tiers_config_for(n), rng);
}

double relative_gap(double value, double reference) {
  return std::abs(value - reference) / std::max(std::abs(reference), 1e-300);
}

/// Pass/fail of one operation (a timed step with its checks, or a check).
struct OpCheck {
  bool ok = true;
  std::string why;
  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// Everything one run accumulates.
struct Run {
  explicit Run(const RunOptions& o)
      : options(o), size(sizing(o)), nproc(available_cpus()),
        pool(std::max<std::size_t>(1, nproc - 1)), trace(o.trace), rng(o.seed),
        corrupt_pending(o.corrupt_schedule), start(Clock::now()) {}

  const RunOptions& options;
  Sizing size;
  std::size_t nproc;
  /// Solver pool handed to every call through its options: with the client
  /// thread (which help-runs pool tasks) the run uses at most nproc cores.
  bt::ThreadPool pool;
  Trace trace;
  bt::Rng rng;
  bool corrupt_pending;
  Clock::time_point start;

  std::uint64_t next_op = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  std::vector<double> setup_s;         ///< one entry per set-up repetition
  std::vector<double> step_ms;         ///< untraced timed steps
  std::vector<double> traced_step_ms;  ///< traced timed steps
  std::vector<double> self_sum_ratio;  ///< traced steps: sum of layer self times / e2e
  std::vector<double> read_ns;         ///< per-read ns of each cached-read batch
  double delivered_min = std::numeric_limits<double>::infinity();
  std::size_t replays = 0, cold_checks = 0, schedule_checks = 0;
  std::vector<std::string> lines;

  bool over_wall_cap() const { return ms_between(start, Clock::now()) > kWallCapMs; }

  /// Set-up repetition i runs once the timed steps have used i/setup_reps
  /// of the budget, so setup_s samples the machine over the whole run, as
  /// the step latencies do, instead of only its first seconds.
  bool setup_due(double timed_ms) const {
    return setup_s.size() < size.setup_reps &&
           timed_ms >= options.seconds * 1e3 * static_cast<double>(setup_s.size()) /
                           static_cast<double>(size.setup_reps);
  }

  void finish(const OpCheck& check) {
    ++attempted;
    if (!check.ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(check.why);
    }
  }

  Span span(const char* call, std::uint64_t op, bool timed, Clock::time_point a,
            Clock::time_point b) const {
    Span s;
    s.call = call;
    s.op = op;
    s.timed = timed;
    s.start_ms = trace.at(a);
    s.end_ms = trace.at(b);
    return s;
  }

  bt::SsbCuttingPlaneOptions cutting_options() {
    bt::SsbCuttingPlaneOptions o;
    o.pool = &pool;
    return o;
  }
  bt::SsbColumnGenOptions packing_options() {
    bt::SsbColumnGenOptions o;
    o.pool = &pool;
    return o;
  }
  bt::TreeDecompositionOptions decomposition_options() {
    bt::TreeDecompositionOptions o;
    o.pool = &pool;
    return o;
  }
  bt::OrchestrationOptions orchestration_options() {
    bt::OrchestrationOptions o;
    o.pool = &pool;
    return o;
  }
  bt::PlannerServiceOptions service_options(std::size_t sessions) {
    bt::PlannerServiceOptions o;
    o.max_sessions = sessions;
    o.session.cutting.pool = &pool;
    o.session.colgen.pool = &pool;
    return o;
  }
};

// ---- span attributes from the public results ---------------------------

/// LP counters of one solve: `now - before` for a warm session (whose
/// lp_stats are cumulative over its standing masters), `now` when the
/// counters restarted (a cold solve or a rebuilt master).
bt::LpEngineStats lp_delta(const bt::LpEngineStats& now, const bt::LpEngineStats& before) {
  if (now.primal_pivots < before.primal_pivots || now.dual_pivots < before.dual_pivots ||
      now.refactorizations < before.refactorizations ||
      now.ftran_dim_steps < before.ftran_dim_steps || now.btran_dim_steps < before.btran_dim_steps) {
    return now;
  }
  bt::LpEngineStats d;
  d.primal_pivots = now.primal_pivots - before.primal_pivots;
  d.dual_pivots = now.dual_pivots - before.dual_pivots;
  d.refactorizations = now.refactorizations - before.refactorizations;
  d.ftran_reach_steps = now.ftran_reach_steps - before.ftran_reach_steps;
  d.ftran_dim_steps = now.ftran_dim_steps - before.ftran_dim_steps;
  d.btran_reach_steps = now.btran_reach_steps - before.btran_reach_steps;
  d.btran_dim_steps = now.btran_dim_steps - before.btran_dim_steps;
  return d;
}

void set_lp_attrs(Span& s, const bt::LpEngineStats& lp) {
  s.set("lp.primal_pivots", static_cast<double>(lp.primal_pivots));
  s.set("lp.dual_pivots", static_cast<double>(lp.dual_pivots));
  s.set("lp.refactorizations", static_cast<double>(lp.refactorizations));
  s.set("lp.ftran_reach_steps", static_cast<double>(lp.ftran_reach_steps));
  s.set("lp.ftran_dim_steps", static_cast<double>(lp.ftran_dim_steps));
  s.set("lp.btran_reach_steps", static_cast<double>(lp.btran_reach_steps));
  s.set("lp.btran_dim_steps", static_cast<double>(lp.btran_dim_steps));
}

/// A cutting-plane solve (warm plan() or cold batch): max-flow separation
/// is the flow layer, master solves the lp layer, the rest is ssb's own.
void set_cutting_attrs(Span& s, const bt::SsbSolution& sol, std::size_t nodes,
                       std::size_t new_cuts, const bt::LpEngineStats& lp) {
  const double separation = sol.phase_stats.separation_wall_ms;
  s.set("flow.separation_ms", separation);
  s.set("lp.master_ms", sol.master_wall_ms);
  s.set("ssb.self_ms", s.duration_ms() - separation - sol.master_wall_ms);
  s.set("ssb.rounds", static_cast<double>(sol.separation_rounds));
  s.set("flow.maxflows", static_cast<double>(sol.separation_rounds * (nodes - 1)));
  s.set("ssb.cuts", static_cast<double>(new_cuts));
  set_lp_attrs(s, lp);
}

/// A packing (column-generation) solve: arborescence pricing is the graph
/// layer.
void set_packing_attrs(Span& s, const bt::SsbPackingSolution& sol) {
  const double pricing = sol.phase_stats.pricing_wall_ms;
  s.set("graph.pricing_ms", pricing);
  s.set("lp.master_ms", sol.master_wall_ms);
  s.set("ssb.self_ms", s.duration_ms() - pricing - sol.master_wall_ms);
  s.set("ssb.pricing_rounds", static_cast<double>(sol.separation_rounds));
  set_lp_attrs(s, sol.lp_stats);
}

/// Splits a synthesis span (schedule() or synthesize_schedule) by timing
/// decompose_edge_load and orchestrate_one_port again on the same solution
/// and platform snapshot.  The split is measured, not scaled, so the
/// residual (service copy and caching, noise) stays visible.
void set_synthesis_attrs(Run& run, Span& s, const bt::Platform& platform,
                         const bt::SsbSolution& solution) {
  const auto a = Clock::now();
  const bt::TreeDecomposition dec =
      bt::decompose_edge_load(platform, solution, run.decomposition_options());
  const auto b = Clock::now();
  const bt::PeriodicSchedule schedule =
      bt::orchestrate_one_port(platform, dec.trees, run.orchestration_options());
  const auto c = Clock::now();
  const double decompose = ms_between(a, b), orchestrate = ms_between(b, c);
  s.set("sched.decompose_ms", decompose);
  s.set("sched.orchestrate_ms", orchestrate);
  s.set("sched.residual_ms", s.duration_ms() - decompose - orchestrate);
  s.set("sched.decompose_pricing_rounds", static_cast<double>(dec.pricing_rounds));
  s.set("sched.greedy_trees", static_cast<double>(dec.greedy_trees));
  s.set("sched.trees", static_cast<double>(dec.trees.size()));
  s.set("sched.rounds", static_cast<double>(schedule.rounds.size()));
}

// ---- checks (never inside a timed window) --------------------------------

void check_schedule_op(Run& run, std::uint64_t op, const bt::Platform& platform,
                       const bt::PeriodicSchedule& schedule, const bt::SsbSolution& reference,
                       OpCheck& check) {
  bt::PeriodicSchedule corrupted;
  const bt::PeriodicSchedule* target = &schedule;
  if (run.corrupt_pending && !schedule.rounds.empty() && !schedule.rounds[0].transfers.empty()) {
    run.corrupt_pending = false;
    corrupted = schedule;
    corrupted.rounds[0].transfers[0].amount *= 2.0;
    target = &corrupted;
  }
  bt::ScheduleCheckOptions options;
  options.reference = &reference;
  const auto a = Clock::now();
  const bt::ScheduleCheck result = bt::check_schedule(platform, *target, options);
  const auto b = Clock::now();
  ++run.schedule_checks;
  if (run.trace.enabled()) {
    Span s = run.span("check_schedule", op, false, a, b);
    s.set("sched.check_ms", ms_between(a, b));
    run.trace.add(std::move(s));
  }
  if (!result.ok) {
    check.fail("check_schedule: " +
               (result.violations.empty() ? std::string("failed") : result.violations.front()));
  }
}

void replay_op(Run& run, std::uint64_t op, const bt::Platform& platform,
               const bt::PeriodicSchedule& schedule, double reported_tp, OpCheck& check) {
  const auto a = Clock::now();
  const bt::ReplayResult replay = bt::replay_schedule(platform, schedule);
  const auto b = Clock::now();
  ++run.replays;
  const double ratio = replay.steady_throughput / reported_tp;
  run.delivered_min = std::min(run.delivered_min, ratio);
  if (run.trace.enabled()) {
    Span s = run.span("replay_schedule", op, false, a, b);
    s.set("sim.replay_ms", ms_between(a, b));
    s.set("sim.transient_periods", static_cast<double>(replay.transient_periods));
    run.trace.add(std::move(s));
  }
  if (!(ratio >= kReplayFloor)) {
    std::ostringstream why;
    why << "replay delivered " << ratio << " x the reported TP*";
    check.fail(why.str());
  }
}

/// Cold batch cutting-plane solve of `platform` (a check span).
bt::SsbSolution cold_cutting_op(Run& run, std::uint64_t op, const bt::Platform& platform) {
  const auto a = Clock::now();
  bt::SsbSolution cold = bt::solve_ssb_cutting_plane(platform, run.cutting_options());
  const auto b = Clock::now();
  if (run.trace.enabled()) {
    Span s = run.span("solve_ssb_cutting_plane", op, false, a, b);
    set_cutting_attrs(s, cold, platform.num_nodes(), cold.cuts_generated, cold.lp_stats);
    run.trace.add(std::move(s));
  }
  return cold;
}

/// Time cached reads after warming the plan and schedule caches of every
/// source at the service's current version; every read must be a hit.
void cached_reads_op(Run& run, bt::PlannerService& service, const std::vector<NodeId>& sources,
                     const bt::Platform& base) {
  const std::uint64_t op = run.next_op++;
  OpCheck check;
  std::vector<std::shared_ptr<const bt::SsbSolution>> plans;
  std::vector<std::shared_ptr<const bt::PeriodicSchedule>> schedules;
  try {
    for (NodeId s : sources) {
      plans.push_back(service.plan(s));
      schedules.push_back(service.schedule(s));
    }
    // The warmed schedule of the first source joins the replay subset, so
    // every run replays at least one schedule.
    const bt::Platform platform = base.with_source(sources.front());
    check_schedule_op(run, op, platform, *schedules.front(), *plans.front(), check);
    replay_op(run, op, platform, *schedules.front(), plans.front()->throughput, check);

    const std::size_t k = sources.size();
    std::size_t misses = 0;
    for (std::size_t b = 0; b < run.size.read_batches; ++b) {
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < run.size.reads_per_batch; ++r) {
        const std::size_t i = (b + r) % k;
        if (r % 2 == 0) {
          misses += service.plan(sources[i]) != plans[i];
        } else {
          misses += service.schedule(sources[i]) != schedules[i];
        }
      }
      const auto t1 = Clock::now();
      run.read_ns.push_back(ms_between(t0, t1) * 1e6 /
                            static_cast<double>(run.size.reads_per_batch));
    }
    if (misses > 0) check.fail(std::to_string(misses) + " cached reads missed the warmed caches");
  } catch (const std::exception& e) {
    check.fail(std::string("cached reads: ") + e.what());
  }
  run.finish(check);
}

// ---- link_replan / link_schedule ------------------------------------------

struct LinkDelta {
  bool restore = false;
  EdgeId edge = 0;
  double factor = 1.0;  ///< degrade: time multiplier
  bt::LinkCost cost;    ///< restore: pristine cost
};

void run_link(Run& run, bool with_schedule) {
  const Sizing& z = run.size;
  const std::size_t k = z.sources.size();

  // ---- set-up: platform, service, first cold plan per source -------------
  struct SetUp {
    std::unique_ptr<bt::Platform> platform;
    std::unique_ptr<bt::PlannerService> service;
  };
  auto set_up = [&] {
    const auto t0 = Clock::now();
    SetUp u;
    u.platform = std::make_unique<bt::Platform>(random_platform(z.link_nodes));
    u.service = std::make_unique<bt::PlannerService>(*u.platform, run.service_options(k));
    for (NodeId s : z.sources) {
      if (u.service->plan(s)->tier != bt::PlanTier::kExact) {
        throw std::runtime_error("set-up: cold plan is not exact");
      }
    }
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    return u;
  };
  // The first set-up is the one the run uses; later repetitions are timed
  // and dropped (Run::setup_due).
  SetUp used = set_up();
  bt::Platform* const platform = used.platform.get();
  bt::PlannerService* const service = used.service.get();
  const std::size_t n = platform->num_nodes();

  // ---- inputs: the seeded degrade/restore stream --------------------------
  // Restores are forced beyond kMaxDegraded outstanding degradations: links
  // recover, and the platform stays near its pristine state instead of
  // drifting, so every seed samples the same population of re-plans.
  std::vector<LinkDelta> deltas;
  {
    constexpr std::size_t kMaxDegraded = 4;
    const std::size_t cap = static_cast<std::size_t>(run.options.seconds * 500.0) + 64;
    bt::LinkChurnSampler sampler(*platform, bt::LinkChurnSampler::Config{});
    for (std::size_t i = 0; i < cap; ++i) {
      LinkDelta d;
      if (sampler.num_outstanding() >= kMaxDegraded ||
          (sampler.has_outstanding() && run.rng.bernoulli(0.5))) {
        const auto restore = sampler.pop_restore();
        d.restore = true;
        d.edge = restore.edge;
        d.cost = restore.cost;
      } else {
        const auto degrade = sampler.sample_degrade(run.rng);
        d.edge = degrade.edge;
        d.factor = degrade.factor;
      }
      deltas.push_back(d);
    }
  }
  const std::size_t phase = static_cast<std::size_t>(run.options.seed);

  // Per-source cumulative LP counters and cut-pool sizes, to turn the warm
  // sessions' lifetime counters into per-plan deltas.
  std::vector<bt::LpEngineStats> last_lp(k);
  std::vector<std::size_t> last_cuts(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto plan = service->plan(z.sources[i]);
    last_lp[i] = plan->lp_stats;
    last_cuts[i] = plan->cuts_generated;
  }

  std::vector<double> replan_ms;
  double timed_total_ms = 0.0;
  std::size_t step = 0;
  for (; step < deltas.size() && timed_total_ms < run.options.seconds * 1e3 && !run.over_wall_cap();
       ++step) {
    if (run.setup_due(timed_total_ms)) set_up();
    const LinkDelta& d = deltas[step];
    const std::size_t si = step % k;
    const NodeId s = z.sources[si];
    // Traced and untraced steps alternate in blocks of one step per source,
    // so both halves see every source (their re-plan costs differ).
    const bool traced = run.trace.enabled() && (step / k) % 2 == 0;
    const std::uint64_t op = run.next_op++;
    OpCheck check;
    bt::PlannerServiceStats before;
    if (traced) before = service->stats();

    std::shared_ptr<const bt::SsbSolution> plan;
    std::shared_ptr<const bt::PeriodicSchedule> schedule;
    Clock::time_point t0, t1, t2, t3;
    try {
      t0 = Clock::now();
      if (d.restore) {
        service->set_link_cost(d.edge, d.cost);
      } else {
        service->scale_link_time(d.edge, d.factor);
      }
      t1 = Clock::now();
      plan = service->plan(s);
      t2 = Clock::now();
      if (with_schedule) schedule = service->schedule(s);
      t3 = Clock::now();
    } catch (const std::exception& e) {
      check.fail(std::string("step: ") + e.what());
      run.finish(check);
      continue;
    }
    const double e2e = ms_between(t0, t3);
    timed_total_ms += e2e;
    (traced ? run.traced_step_ms : run.step_ms).push_back(e2e);
    replan_ms.push_back(ms_between(t0, t2));

    // ---- everything below is outside the timed window ----
    try {
      if (!plan->solved || plan->tier != bt::PlanTier::kExact) {
        check.fail(std::string("plan tier ") + bt::to_string(plan->tier));
      }
      const bt::Platform snapshot = service->platform_snapshot().with_source(s);
      const bt::LpEngineStats lp = lp_delta(plan->lp_stats, last_lp[si]);
      const std::size_t new_cuts =
          plan->cuts_generated >= last_cuts[si] ? plan->cuts_generated - last_cuts[si] : 0;
      last_lp[si] = plan->lp_stats;
      last_cuts[si] = plan->cuts_generated;

      if (traced) {
        const bt::PlannerServiceStats after = service->stats();
        Span mutate = run.span(d.restore ? "set_link_cost" : "scale_link_time", op, true, t0, t1);
        mutate.set("service.mutation_us", mutate.duration_ms() * 1e3);
        Span planned = run.span("plan", op, true, t1, t2);
        set_cutting_attrs(planned, *plan, n, new_cuts, lp);
        planned.set("service.solves", static_cast<double>(after.solves - before.solves));
        planned.set("service.plan_queries", 1.0);
        planned.set("service.plan_hits",
                    static_cast<double>(after.plan_cache_hits - before.plan_cache_hits));
        double self_sum = mutate.duration_ms() + planned.duration_ms();
        if (with_schedule) {
          Span synth = run.span("schedule", op, true, t2, t3);
          set_synthesis_attrs(run, synth, snapshot, *plan);
          for (const auto& [name, value] : synth.attrs) {
            if (name == "sched.decompose_ms" || name == "sched.orchestrate_ms") self_sum += value;
          }
          run.trace.add(std::move(synth));
        }
        run.self_sum_ratio.push_back(self_sum / e2e);
        run.trace.add(std::move(mutate));
        run.trace.add(std::move(planned));
      }

      const bool sample_replay = (step + phase) % z.replay_every == 0;
      if (with_schedule) {
        check_schedule_op(run, op, snapshot, *schedule, *plan, check);
      } else if (sample_replay) {
        // link_replan keeps schedules out of its steps; the replay sample
        // fetches one here, untimed.
        const auto a = Clock::now();
        schedule = service->schedule(s);
        const auto b = Clock::now();
        if (run.trace.enabled()) {
          Span synth = run.span("schedule", op, false, a, b);
          set_synthesis_attrs(run, synth, snapshot, *plan);
          run.trace.add(std::move(synth));
        }
        check_schedule_op(run, op, snapshot, *schedule, *plan, check);
      }
      if (sample_replay) replay_op(run, op, snapshot, *schedule, plan->throughput, check);

      if ((step + phase) % z.cold_check_every == z.cold_check_every / 2 % z.cold_check_every) {
        const bt::SsbSolution cold = cold_cutting_op(run, op, snapshot);
        ++run.cold_checks;
        const double gap = relative_gap(plan->throughput, cold.throughput);
        if (!(gap <= kWarmColdTolerance)) {
          std::ostringstream why;
          why << "warm plan differs from the cold solve by " << gap << " relative";
          check.fail(why.str());
        }
      }
    } catch (const std::exception& e) {
      check.fail(std::string("check: ") + e.what());
    }
    run.finish(check);
  }
  while (run.setup_s.size() < z.setup_reps) set_up();

  // ---- after the timed steps: cached reads, then the packing oracle ------
  const bt::Platform current = service->platform_snapshot();
  cached_reads_op(run, *service, z.sources, current);
  {
    const std::uint64_t op = run.next_op++;
    OpCheck check;
    try {
      const NodeId s = z.sources.front();
      const bt::Platform snapshot = current.with_source(s);
      const double warm_tp = service->plan(s)->throughput;
      const auto a = Clock::now();
      const bt::SsbPackingSolution packing =
          bt::solve_ssb_column_generation(snapshot, run.packing_options());
      const auto b = Clock::now();
      if (run.trace.enabled()) {
        Span span = run.span("solve_ssb_column_generation", op, false, a, b);
        set_packing_attrs(span, packing);
        run.trace.add(std::move(span));
      }
      const double gap = relative_gap(packing.throughput, warm_tp);
      if (!(gap <= kSolverTolerance)) {
        std::ostringstream why;
        why << "packing TP* differs from the warm plan by " << gap << " relative";
        check.fail(why.str());
      }
    } catch (const std::exception& e) {
      check.fail(std::string("packing check: ") + e.what());
    }
    run.finish(check);
  }

  std::ostringstream ctx;
  ctx << "context: platform=random n=" << n << " m=" << platform->num_edges()
      << " sources=" << k << " steps=" << step << " replan_ms_p50=" << median(replan_ms);
  run.lines.push_back(ctx.str());
}

// ---- cold_plan -----------------------------------------------------------

void run_cold(Run& run) {
  const Sizing& z = run.size;
  const std::vector<std::string> names = {"random", "tiers"};

  // ---- set-up: the platform set, plus the service that cross-checks the
  // batch solvers on the random platform (first cold plan included) --------
  struct SetUp {
    std::vector<bt::Platform> platforms;
    std::unique_ptr<bt::PlannerService> service;
  };
  auto set_up = [&] {
    const auto t0 = Clock::now();
    SetUp u;
    u.platforms.push_back(random_platform(z.batch_nodes));
    u.platforms.push_back(tiers_platform(z.batch_nodes));
    u.service = std::make_unique<bt::PlannerService>(u.platforms.front(), run.service_options(1));
    if (u.service->plan(u.platforms.front().source())->tier != bt::PlanTier::kExact) {
      throw std::runtime_error("set-up: cold plan is not exact");
    }
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    return u;
  };
  SetUp used = set_up();
  const std::vector<bt::Platform>& platforms = used.platforms;
  bt::PlannerService* const service = used.service.get();
  const std::size_t count = platforms.size();
  // The round trip's delta is drawn before the passes, whose number depends
  // on timing, so the same seed always checks the same delta.
  const bt::Platform& base = platforms.front();
  const EdgeId round_trip_edge = static_cast<EdgeId>(run.rng.index(base.num_edges()));
  const double round_trip_factor = run.rng.uniform_real(1.2, 2.0);

  std::vector<double> first_tp(count, 0.0);
  std::vector<double> cutting_s, packing_s, synthesis_s;
  double timed_total_ms = 0.0;
  std::size_t pass = 0;
  for (; timed_total_ms < run.options.seconds * 1e3 && !run.over_wall_cap(); ++pass) {
    if (run.setup_due(timed_total_ms)) set_up();
    const bool traced = run.trace.enabled() && pass % 2 == 0;
    const std::uint64_t op = run.next_op++;
    OpCheck check;
    double pass_ms = 0.0, cut_ms = 0.0, pack_ms = 0.0, synth_ms = 0.0, self_sum = 0.0;
    for (std::size_t idx : run.rng.permutation(count)) {
      const bt::Platform& p = platforms[idx];
      try {
        const auto a = Clock::now();
        const bt::SsbSolution cut = bt::solve_ssb_cutting_plane(p, run.cutting_options());
        const auto b = Clock::now();
        const bt::SsbPackingSolution pack = bt::solve_ssb_column_generation(p, run.packing_options());
        const auto c = Clock::now();
        const bt::PeriodicSchedule cut_schedule = bt::synthesize_schedule(
            p, cut, run.orchestration_options(), run.decomposition_options());
        const auto d = Clock::now();
        const bt::PeriodicSchedule pack_schedule = bt::synthesize_schedule(
            p, pack, run.orchestration_options(), run.decomposition_options());
        const auto e = Clock::now();
        pass_ms += ms_between(a, e);
        cut_ms += ms_between(a, b);
        pack_ms += ms_between(b, c);
        synth_ms += ms_between(c, e);

        // ---- outside the timed window ----
        if (traced) {
          Span cutting = run.span("solve_ssb_cutting_plane", op, true, a, b);
          set_cutting_attrs(cutting, cut, p.num_nodes(), cut.cuts_generated, cut.lp_stats);
          Span packing = run.span("solve_ssb_column_generation", op, true, b, c);
          set_packing_attrs(packing, pack);
          Span synth_cut = run.span("synthesize_schedule", op, true, c, d);
          set_synthesis_attrs(run, synth_cut, p, cut);
          Span synth_pack = run.span("synthesize_schedule", op, true, d, e);
          set_synthesis_attrs(run, synth_pack, p, pack);
          self_sum += cutting.duration_ms() + packing.duration_ms();
          for (const Span* s : {&synth_cut, &synth_pack}) {
            for (const auto& [name, value] : s->attrs) {
              if (name == "sched.decompose_ms" || name == "sched.orchestrate_ms") self_sum += value;
            }
          }
          for (Span* s : {&cutting, &packing, &synth_cut, &synth_pack}) run.trace.add(std::move(*s));
        }
        const double gap = relative_gap(pack.throughput, cut.throughput);
        if (!(gap <= kSolverTolerance)) {
          std::ostringstream why;
          why << names[idx] << ": packing TP* differs from the cutting plane by " << gap;
          check.fail(why.str());
        }
        // Batch solves are deterministic: every pass reproduces pass 0.
        if (pass == 0) {
          first_tp[idx] = cut.throughput;
        } else if (cut.throughput != first_tp[idx]) {
          check.fail(names[idx] + ": cutting-plane TP* changed between passes");
        }
        check_schedule_op(run, op, p, cut_schedule, cut, check);
        check_schedule_op(run, op, p, pack_schedule, pack, check);
        if (pass == 0) {
          replay_op(run, op, p, cut_schedule, cut.throughput, check);
          replay_op(run, op, p, pack_schedule, pack.throughput, check);
        }
      } catch (const std::exception& e) {
        check.fail(names[idx] + ": " + e.what());
      }
    }
    timed_total_ms += pass_ms;
    (traced ? run.traced_step_ms : run.step_ms).push_back(pass_ms);
    if (traced && pass_ms > 0.0) run.self_sum_ratio.push_back(self_sum / pass_ms);
    cutting_s.push_back(cut_ms / 1e3);
    packing_s.push_back(pack_ms / 1e3);
    synthesis_s.push_back(synth_ms / 1e3);
    run.finish(check);
  }
  while (run.setup_s.size() < z.setup_reps) set_up();

  // ---- service vs batch: a degrade/restore round trip on the random
  // platform must come back to the batch optimum ----------------------------
  {
    const std::uint64_t op = run.next_op++;
    OpCheck check;
    try {
      const NodeId s = base.source();
      const EdgeId e = round_trip_edge;
      bt::LpEngineStats last_lp = service->plan(s)->lp_stats;
      std::size_t last_cuts = service->plan(s)->cuts_generated;
      for (int leg = 0; leg < 2; ++leg) {
        const auto a = Clock::now();
        if (leg == 0) {
          service->scale_link_time(e, round_trip_factor);
        } else {
          service->set_link_cost(e, base.link_cost(e));
        }
        const auto b = Clock::now();
        const auto plan = service->plan(s);
        const auto c = Clock::now();
        if (plan->tier != bt::PlanTier::kExact) check.fail("service round trip: plan not exact");
        if (run.trace.enabled()) {
          Span mutate = run.span(leg == 0 ? "scale_link_time" : "set_link_cost", op, false, a, b);
          mutate.set("service.mutation_us", mutate.duration_ms() * 1e3);
          Span planned = run.span("plan", op, false, b, c);
          set_cutting_attrs(planned, *plan, base.num_nodes(),
                            plan->cuts_generated >= last_cuts ? plan->cuts_generated - last_cuts : 0,
                            lp_delta(plan->lp_stats, last_lp));
          run.trace.add(std::move(mutate));
          run.trace.add(std::move(planned));
        }
        last_lp = plan->lp_stats;
        last_cuts = plan->cuts_generated;
        if (leg == 1 && first_tp[0] > 0.0) {
          const double gap = relative_gap(plan->throughput, first_tp[0]);
          if (!(gap <= kWarmColdTolerance)) {
            std::ostringstream why;
            why << "service round trip differs from the batch optimum by " << gap;
            check.fail(why.str());
          }
        }
      }
    } catch (const std::exception& e) {
      check.fail(std::string("service round trip: ") + e.what());
    }
    run.finish(check);
  }
  cached_reads_op(run, *service, {base.source()}, base);

  std::ostringstream ctx;
  ctx << "context: platforms=";
  for (std::size_t i = 0; i < count; ++i) {
    ctx << (i ? "," : "") << names[i] << "(n=" << platforms[i].num_nodes()
        << ",m=" << platforms[i].num_edges() << ")";
  }
  ctx << " passes=" << pass;
  run.lines.push_back(ctx.str());
  std::ostringstream split;
  split << "per pass (median): cutting_solve_s=" << median(cutting_s)
        << " packing_solve_s=" << median(packing_s) << " synthesis_s=" << median(synthesis_s);
  run.lines.push_back(split.str());
}

// ---- reporting -------------------------------------------------------------

double ratio_of(const std::map<std::string, double>& totals, const char* num, const char* den) {
  const auto n = totals.find(num), d = totals.find(den);
  if (n == totals.end() || d == totals.end() || d->second <= 0.0) return -1.0;
  return n->second / d->second;
}

/// Median over operations of a derived per-operation ratio (timed steps
/// first, check operations when no timed step has it).
double op_ratio_median(const Trace& trace, const char* num, const char* den) {
  for (bool timed_only : {true, false}) {
    std::vector<double> values;
    for (const auto& [op, totals] : trace.per_op_totals(timed_only)) {
      const double r = ratio_of(totals, num, den);
      if (r >= 0.0) values.push_back(r);
    }
    if (!values.empty()) return median(std::move(values));
  }
  return 0.0;
}

void add_layer_metrics(Run& run, RunReport& report) {
  const Trace& t = run.trace;
  auto add = [&](const char* name, const char* unit, double value) {
    report.metrics.push_back({name, unit, value});
  };
  add("flow.separation_ms", "ms", t.op_median("flow.separation_ms"));
  add("flow.maxflows", "count", t.op_median("flow.maxflows"));
  add("flow.cut_yield", "ratio", op_ratio_median(t, "ssb.cuts", "flow.maxflows"));
  add("ssb.rounds", "count", t.op_median("ssb.rounds"));
  add("ssb.cuts", "count", t.op_median("ssb.cuts"));
  add("ssb.self_ms", "ms", t.op_median("ssb.self_ms"));
  add("lp.master_ms", "ms", t.op_median("lp.master_ms"));
  add("lp.primal_pivots", "count", t.op_median("lp.primal_pivots"));
  add("lp.dual_pivots", "count", t.op_median("lp.dual_pivots"));
  add("lp.refactorizations", "count", t.op_median("lp.refactorizations"));
  add("lp.ftran_reach", "ratio", op_ratio_median(t, "lp.ftran_reach_steps", "lp.ftran_dim_steps"));
  add("lp.btran_reach", "ratio", op_ratio_median(t, "lp.btran_reach_steps", "lp.btran_dim_steps"));
  add("graph.pricing_ms", "ms", t.op_median("graph.pricing_ms"));
  add("sched.decompose_ms", "ms", t.op_median("sched.decompose_ms"));
  add("sched.decompose_pricing_rounds", "count", t.op_median("sched.decompose_pricing_rounds"));
  add("sched.greedy_trees", "count", t.op_median("sched.greedy_trees"));
  add("sched.trees", "count", t.op_median("sched.trees"));
  add("sched.orchestrate_ms", "ms", t.op_median("sched.orchestrate_ms"));
  add("sched.rounds", "count", t.op_median("sched.rounds"));
  add("sched.check_ms", "ms", t.op_median("sched.check_ms"));
  add("service.plan_hit_ratio", "ratio",
      op_ratio_median(t, "service.plan_hits", "service.plan_queries"));
  add("service.mutation_us", "us", t.op_median("service.mutation_us"));
  add("service.solves", "count", t.op_median("service.solves"));
  add("service.cached_read_ns", "ns", median(run.read_ns));
  add("sim.replay_ms", "ms", t.op_median("sim.replay_ms"));
  add("sim.transient_periods", "count", t.op_median("sim.transient_periods"));
  const double untraced = median(run.step_ms), traced = median(run.traced_step_ms);
  add("trace.overhead_ratio", "ratio", untraced > 0.0 ? traced / untraced : 0.0);
}

/// The traced run's layer table: per timed step, each layer's self time
/// (median and quartiles) and its share of the step's median latency.
void add_layer_table(Run& run) {
  struct Row {
    const char* layer;
    std::vector<std::pair<const char*, double>> parts;  ///< attr, scale to ms
  };
  const std::vector<Row> rows = {
      {"service", {{"service.mutation_us", 1e-3}}},
      {"ssb", {{"ssb.self_ms", 1.0}}},
      {"lp", {{"lp.master_ms", 1.0}}},
      {"flow", {{"flow.separation_ms", 1.0}}},
      {"graph", {{"graph.pricing_ms", 1.0}}},
      {"sched", {{"sched.decompose_ms", 1.0}, {"sched.orchestrate_ms", 1.0}}},
  };
  const auto ops = run.trace.per_op_totals(true);
  const double e2e = median(run.traced_step_ms);
  std::ostringstream head;
  head << "layer self time per timed step (ms, " << ops.size()
       << " traced steps; traced e2e p50 " << e2e << " ms):";
  run.lines.push_back(head.str());
  for (const Row& row : rows) {
    std::vector<double> values;
    for (const auto& [op, totals] : ops) {
      double v = 0.0;
      for (const auto& [attr, scale] : row.parts) {
        const auto it = totals.find(attr);
        if (it != totals.end()) v += it->second * scale;
      }
      values.push_back(v);
    }
    const double p50 = quantile(values, 0.5);
    std::ostringstream line;
    line << "  " << row.layer << ": p50 " << p50 << "  q1 " << quantile(values, 0.25) << "  q3 "
         << quantile(values, 0.75) << "  share " << (e2e > 0.0 ? p50 / e2e : 0.0);
    run.lines.push_back(line.str());
  }
  std::ostringstream sum;
  const double ratio = median(run.self_sum_ratio);
  sum << "self-time sum / e2e per traced step: p50 " << ratio << " (tolerance +-"
      << kSelfSumTolerance << ": " << (std::abs(ratio - 1.0) <= kSelfSumTolerance ? "ok" : "EXCEEDED")
      << ")";
  run.lines.push_back(sum.str());
  std::ostringstream overhead;
  const double untraced = median(run.step_ms);
  overhead << "tracing overhead: traced e2e p50 " << e2e << " ms - untraced e2e p50 " << untraced
           << " ms = " << e2e - untraced << " ms (" << run.traced_step_ms.size() << " traced vs "
           << run.step_ms.size() << " untraced steps)";
  run.lines.push_back(overhead.str());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"link_replan", "link_schedule", "cold_plan"};
  return names;
}

RunReport run(const RunOptions& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");

  Run run(options);
  if (options.workload == "cold_plan") {
    run_cold(run);
  } else {
    run_link(run, options.workload == "link_schedule");
  }

  RunReport report;
  {
    std::ostringstream ctx;
    ctx << "run: workload=" << options.workload << " seed=" << options.seed
        << " trace=" << (options.trace ? 1 : 0) << (options.smoke ? " smoke" : "")
        << " pool_width=" << run.pool.num_threads() << " nproc=" << run.nproc
        << " setups=" << run.setup_s.size() << " (q1 " << quantile(run.setup_s, 0.25) << " s, q3 "
        << quantile(run.setup_s, 0.75) << " s) timed_steps=" << run.step_ms.size()
        << " traced_steps=" << run.traced_step_ms.size() << " cold_checks=" << run.cold_checks
        << " schedule_checks=" << run.schedule_checks << " replays=" << run.replays
        << " read_batches=" << run.read_ns.size() << "x" << run.size.reads_per_batch;
    report.lines.push_back(ctx.str());
  }
  for (std::string& line : run.lines) report.lines.push_back(std::move(line));
  run.lines.clear();

  std::ostringstream outcome;
  outcome << "failed_fraction: " << run.failed << "/" << run.attempted;
  for (const std::string& why : run.failures) outcome << "\n  failure: " << why;
  report.lines.push_back(outcome.str());

  // Timed steps of a traced run alternate traced/untraced; either way the
  // latency quantiles are over the run's untraced steps.
  std::vector<double> steps = run.step_ms;
  if (steps.empty()) steps = run.traced_step_ms;
  if (options.trace) {
    add_layer_table(run);
    for (std::string& line : run.lines) report.lines.push_back(std::move(line));
    add_layer_metrics(run, report);
    if (!options.trace_out.empty()) run.trace.write_jsonl(options.trace_out);
  } else {
    report.metrics = {
        {"setup_s", "s", median(run.setup_s)},
        {"step_ms_p50", "ms", quantile(steps, 0.5)},
        {"step_ms_p90", "ms", quantile(steps, 0.9)},
        {"delivered_ratio_min", "ratio", run.replays > 0 ? run.delivered_min : 0.0},
    };
  }
  report.attempted = run.attempted;
  report.failed = run.failed;
  return report;
}

}  // namespace perfbench
