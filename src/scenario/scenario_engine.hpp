#pragma once

// The live-churn scenario engine: a seeded ChurnTimeline replayed against a
// running PlannerService while a ReplaySession keeps executing the
// currently installed schedule.
//
// Per period boundary, in this order:
//
//   1. poll   -- ScheduleSubscription::poll_schedule picks up the newest
//                schedule the service has *built* (never blocks on a
//                solve); a newer build is hot-swapped into the replayer
//                with a warm handoff, so refill transients do not masquerade
//                as churn losses.
//   2. events -- the boundary's timeline events hit the service
//                (scale_link_time / set_link_cost / remove_link / add_node /
//                remove_node) and, in synchronous mode, a timed
//                plan()+schedule() re-plan runs per event
//                (ChurnScenarioResult::replan_latency_ms).  Because the
//                poll ran *before* the events, the periods between an event
//                batch and the next boundary execute the now-stale
//                schedule: the replayer caps every transfer by the live arc
//                times and ships nothing over removed arcs, and that
//                shortfall is the bytes-lost-to-staleness signal.
//   3. run    -- one period of the installed schedule executes against the
//                live platform; delivery, loss, the installed plan's ladder
//                tier and the offline reference throughput are recorded.
//
// Async mode (options.service.async_replan): mutations enqueue re-plan jobs
// on the service's background worker instead of solving inline, so step 2
// applies the whole batch between pause_replans()/resume_replans() (the
// worker then solves only the batch's final state) and step 1 starts with
// drain_replans() so the set of finished builds at every boundary is a
// deterministic function of the timeline, not of worker timing.  The
// latency samples then come from PlannerService::take_replan_latencies
// (mutation to stored answer, queue wait included).
//
// kNodeLeave is structural in both modes: the service drops every warm
// session and stored answer (remove_node), the engine mirrors the id
// compaction onto its live platform and removal mask via the returned
// ShrinkRemap, and a forced synchronous re-plan rebuilds the replayer
// (ReplaySession::install cannot shrink its platform) -- so a leave, unlike
// every other event, never executes stale periods.
//
// Availability is delivered work divided by the offline-optimal capacity:
//   sum_p delivered_total_p  /  sum_p TP*_p * period_seconds_p * receivers_p
// where TP*_p is a *cold* re-solve of the live platform after the period's
// events (a throwaway PlannerSession with the removals replayed) -- the
// number an omniscient planner that re-plans instantly would achieve.
//
// Determinism contract: every field of ChurnScenarioResult except the
// latency samples is a pure function of (platform, options) -- no
// wall-clock, no iteration-order nondeterminism, and the solver stack is
// pool-width invariant (index-ordered merges; util/thread_pool.hpp) -- so
// payload_bitwise_equal must hold across pool widths and across repeated
// same-seed runs.  tests/test_scenario.cpp pins this; BENCH_churn.json
// carries the same contract into CI.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "scenario/churn_timeline.hpp"
#include "service/planner_service.hpp"
#include "util/thread_pool.hpp"

namespace bt {

/// Delivery accounting of one executed period (the bitwise payload of one
/// BENCH_churn record).
struct ChurnPeriodRecord {
  std::uint64_t period = 0;
  /// Service version the installed schedule was built at.
  std::uint64_t schedule_version = 0;
  /// Timeline events applied at this period's start boundary.
  std::uint64_t events_applied = 0;
  std::uint64_t live_nodes = 0;
  double period_seconds = 0.0;
  /// Slices per period the installed schedule promises each receiver.
  double designed_slices = 0.0;
  double delivered_total = 0.0;
  double min_delivered = 0.0;
  /// Shortfall vs the installed schedule's promise (stale-schedule loss).
  double lost_slices = 0.0;
  /// TP* of the live platform: cold re-solve, the offline reference.
  double offline_throughput = 0.0;
  /// Ladder tier of the plan behind the installed schedule
  /// (static_cast<std::uint32_t>(PlanTier): 0 exact, 1 rebuild, 2 heuristic).
  std::uint32_t tier = 0;
  /// 1 when the period executed a schedule older than the service's platform
  /// version (a re-plan was pending or skipped), else 0.
  std::uint32_t stale = 0;
};

struct ChurnScenarioResult {
  std::vector<ChurnPeriodRecord> periods;
  // ---- integrated over the scenario (part of the bitwise payload) ----
  double delivered_total = 0.0;
  double lost_total = 0.0;
  /// Integral of TP*_p * seconds_p * receivers_p.
  double offline_capacity = 0.0;
  double availability = 0.0;  ///< delivered_total / offline_capacity
  std::uint64_t num_events = 0;
  std::uint64_t num_swaps = 0;  ///< hot-swaps picked up by polling
  std::uint64_t num_degrades = 0;
  std::uint64_t num_recoveries = 0;
  std::uint64_t num_failures = 0;
  std::uint64_t num_joins = 0;
  std::uint64_t num_leaves = 0;
  /// Periods that executed a schedule older than the platform (record.stale).
  std::uint64_t stale_periods = 0;
  /// Periods executed per installed-plan ladder tier (sum = periods.size()).
  std::uint64_t periods_exact = 0;
  std::uint64_t periods_rebuild = 0;
  std::uint64_t periods_heuristic = 0;
  /// Async jobs that exhausted their retries (last-good answer kept
  /// serving); always 0 in synchronous mode.
  std::uint64_t replans_failed = 0;
  // ---- timing (NOT in the bitwise payload) ----
  /// Wall-clock per re-plan: synchronous mode times the inline
  /// plan()+schedule() per event; async mode reports the worker's
  /// mutation-to-stored-answer latencies.
  std::vector<double> replan_latency_ms;
};

struct ChurnScenarioOptions {
  ChurnTimelineConfig timeline;
  /// Service configuration (warm sessions, ladder, async mode).  The
  /// engine overrides the solver pools with `pool` below.
  PlannerServiceOptions service;
  /// Worker pool for every solve the scenario runs (service sessions and
  /// the offline reference).  nullptr: the solvers' default.  The result
  /// payload must not depend on the pool's width.
  ThreadPool* pool = nullptr;
  /// Hot-swap handoff mode (see sim/replay_session.hpp).  Warm is the
  /// default: churn losses then measure staleness, not pipeline refills.
  bool warm_handoff = true;
};

/// Run the scenario: generate the timeline from (platform, options) and
/// replay it.  Throws bt::Error if a solve fails mid-scenario (the
/// generator's connectivity-checked failures make this unreachable for
/// timelines it built itself).
ChurnScenarioResult run_churn_scenario(const Platform& platform,
                                       const ChurnScenarioOptions& options);

/// Field-wise bitwise equality of everything except the latency samples.
/// Field-wise (not whole-struct memcmp) so padding bytes can't fake a
/// mismatch.
bool payload_bitwise_equal(const ChurnScenarioResult& a, const ChurnScenarioResult& b);

}  // namespace bt
