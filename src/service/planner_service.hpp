#pragma once

// The broadcast-planning service: a long-lived daemon over PlannerSession.
//
// A PlannerService loads one platform and then serves planning requests for
// the lifetime of the process:
//
//   "TP* for source s?"            -> throughput(s) / plan(s)
//   "give me the schedule"         -> schedule(s)
//   "link (u,v) degraded 30%"      -> scale_link_time(arc, 1/0.7), then
//                                     the next plan(s) is a warm re-plan
//   "link came back / re-measured" -> set_link_cost
//   "link died"                    -> remove_link
//   "node joined"                  -> add_node
//   "node left"                    -> remove_node
//
// Layering:
//
//  * One warm PlannerSession per requested source, LRU-bounded
//    (Options::max_sessions): each session keeps its standing cutting-plane
//    masters and pools, so repeated queries and post-mutation re-plans ride
//    the incremental machinery instead of cold solves.  A session's first
//    solve is the batch solve, bitwise; a warm re-plan agrees with a cold
//    solve within 1e-9 relative (see planner_session.hpp).
//  * One stored answer per source: the newest plan and the newest schedule,
//    each stamped with the service version it answers, so steady-state read
//    traffic doesn't even touch the sessions.  Every read keys on the
//    current version and polls only ask for the newest build, so one entry
//    per source is all a cache could ever hit: the store holds at most one
//    plan and one schedule per source ever requested (at most the node
//    count), under its own mutex.
//  * Schedules execute the served plan: a schedule is always synthesized
//    (sched/orchestrate.hpp, synthesize_schedule) from the plan stored for
//    its version, on the service's platform rebased on the source -- never
//    from whichever solver happens to be fresh -- so its per-arc rates stay
//    within the plan's edge loads whatever order plan() and schedule() are
//    called in.  A heuristic-tier plan carries its tree in tree_columns,
//    which the decomposition adopts.
//  * A many-readers / one-writer guard (util/parallel_read_serial_write.hpp):
//    mutations serialize, apply their delta to the base platform and every
//    warm session, and bump the version (which retires every stored answer
//    at once).  Reads take only the store's mutex; a read that races a
//    mutation returns the answer of the version it saw, and a miss
//    escalates to the write guard to run the solve.
//
// Degradation ladder: every solve the service runs goes through
// PlannerSession::solve_laddered under Options::ladder, so a recoverable
// solver fault (or an exhausted pivot budget) degrades the answer --
// exact -> pool-rebuild -> heuristic tree, tagged in SsbSolution::tier /
// quality_gap -- instead of surfacing an exception.  Only a platform that
// genuinely cannot broadcast still throws.  Options::faults arms a
// deterministic FaultInjector around every service-run solve (and the
// pre-solve session-eviction hook) and nowhere else: schedule synthesis and
// solves run elsewhere -- e.g. an offline reference session -- never
// consume its triggers.
//
// Async re-planning (Options::async_replan): mutations enqueue
// version-stamped re-plan jobs on a background worker instead of leaving
// the next reader to pay the solve.  Readers then take any stored answer
// as a hit -- the last-good plan and schedule, possibly one or more
// versions stale while the worker holds the write guard through a solve --
// and poll_schedule hands the new build out at the consumer's next period
// boundary, so staleness overlaps solver latency.  Jobs for the same source
// coalesce to the newest version (so the queue holds at most one job per
// stored source), and a failed re-plan retries with linear backoff --
// exact rungs only until the final attempt, which may degrade.
// pause/resume/drain give batch mutators (the churn engine) deterministic
// barriers: pause around an event batch so the worker solves only the
// batch's final state, drain before reading to make results reproducible.
//
// Read methods are const-free on purpose: a miss escalates to the writer
// side to run the solve, so "read" describes the request, not the
// implementation.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/platform.hpp"
#include "sched/periodic_schedule.hpp"
#include "ssb/planner_session.hpp"
#include "util/fault_injection.hpp"
#include "util/parallel_read_serial_write.hpp"

namespace bt {

struct PlannerServiceOptions {
  /// Per-source session configuration; schedule synthesis uses the port
  /// model and worker pool of session.cutting.
  PlannerSessionOptions session;
  /// Warm sessions kept alive at once (LRU-evicted beyond this).
  std::size_t max_sessions = 8;
  /// Degradation policy of every solve the service runs (pivot budget,
  /// permitted rungs); see planner_session.hpp.
  LadderOptions ladder;
  /// Run re-plans on a background worker (see header comment).  Off by
  /// default: mutations then stay cheap and the next reader pays the solve.
  bool async_replan = false;
  /// When set, armed (thread-locally) around every service-run solve; see
  /// util/fault_injection.hpp.  Not owned.
  FaultInjector* faults = nullptr;
};

/// Service counters (monotonic since construction).
struct PlannerServiceStats {
  std::uint64_t queries = 0;           ///< plan/throughput/schedule requests
  std::uint64_t plan_cache_hits = 0;      ///< plan reads answered from the store
  std::uint64_t schedule_cache_hits = 0;  ///< schedule reads answered from the store
  std::uint64_t solves = 0;            ///< session solves run on a miss
  std::uint64_t schedules_built = 0;
  std::uint64_t mutations = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_evicted = 0;
  // Ladder tiers of the answers produced by service-run solves.
  std::uint64_t plans_exact = 0;
  std::uint64_t plans_rebuild = 0;
  std::uint64_t plans_heuristic = 0;
  // Async re-plan worker.
  std::uint64_t replans_enqueued = 0;
  std::uint64_t replans_coalesced = 0;  ///< superseded jobs folded into newer ones
  std::uint64_t replans_run = 0;        ///< jobs that stored a new answer
  std::uint64_t replan_retries = 0;     ///< failed attempts that were retried
  std::uint64_t replans_failed = 0;     ///< jobs that exhausted their retries
};

/// Cursor of a schedule consumer (e.g. the churn scenario engine's replay
/// loop): remembers the service version of the last schedule it took, so
/// PlannerService::poll_schedule can hand over *newer* builds without ever
/// blocking on a solve.
struct ScheduleSubscription {
  static constexpr std::uint64_t kNone = static_cast<std::uint64_t>(-1);
  NodeId source = 0;
  /// Version of the last schedule taken through poll_schedule (kNone:
  /// nothing taken yet -- the first poll returns the newest build, if any).
  std::uint64_t seen_version = kNone;
};

class PlannerService {
 public:
  explicit PlannerService(Platform platform, PlannerServiceOptions options = {});
  ~PlannerService();

  // ---- read requests (concurrent) ----

  /// TP* of the current platform broadcasting from `source`.
  double throughput(NodeId source);

  /// The full plan (TP*, edge loads, tier, diagnostics) for `source`.  The
  /// returned snapshot stays valid after later mutations.  In async mode
  /// this is the last-good stored plan (possibly one or more versions stale
  /// while a re-plan is in flight); the first request for a source still
  /// solves its plan and schedule synchronously.
  std::shared_ptr<const SsbSolution> plan(NodeId source);

  /// The periodic schedule executing plan(source) at the same version:
  /// synthesized from the stored plan (solving it first on a miss), so its
  /// per-arc rates never exceed the plan's edge loads.  Async: the
  /// last-good stored schedule, as for plan().
  std::shared_ptr<const PeriodicSchedule> schedule(NodeId source);

  /// Non-blocking epoch hook: the stored schedule for `sub.source` when its
  /// service version is newer than sub.seen_version, advancing the cursor
  /// -- or nullptr when nothing newer has been built (call schedule() to
  /// force one).  Never solves or synthesizes, so an executor can poll at
  /// every period boundary and keep running its installed schedule while a
  /// re-plan is in flight.
  std::shared_ptr<const PeriodicSchedule> poll_schedule(ScheduleSubscription& sub);

  // ---- write requests (serialized) ----

  /// Replace arc e's affine cost (re-measured or restored link).
  void set_link_cost(EdgeId e, LinkCost cost);

  /// Scale arc e's cost: "bandwidth degraded 30%" is factor 1/0.7.
  void scale_link_time(EdgeId e, double factor);

  /// Remove arc e from service.  Sources whose broadcasts depended on it
  /// re-plan around it; if it disconnected them, their next query degrades
  /// down the ladder and ultimately throws.
  void remove_link(EdgeId e);

  /// Grow the platform by one node; returns its id.
  NodeId add_node(const std::vector<SessionLink>& in_links,
                  const std::vector<SessionLink>& out_links);

  /// Remove `node` and every arc touching it (the mirror of add_node; see
  /// shrink_platform).  Node and arc ids compact -- `remap` (optional)
  /// receives old-id -> new-id maps with Digraph::npos for the dropped ones
  /// -- so this is a structural fallback: all warm sessions, stored
  /// answers, schedule cursors and queued re-plans for the old id space
  /// are dropped, and the next request per source solves cold.  Requires
  /// node != the base platform's source and >= 3 nodes.
  void remove_node(NodeId node, ShrinkRemap* remap = nullptr);

  // ---- async re-plan worker (no-ops when async_replan is off) ----

  /// Block until every queued job has run and the worker is idle.
  void drain_replans();

  /// Suspend job pickup (waiting out an in-flight job first), so a batch of
  /// mutations coalesces into one re-plan of the final state on resume.
  void pause_replans();
  void resume_replans();

  /// Wall-clock ms per completed re-plan since the last take, mutation to
  /// stored answer (includes queue wait and retries).
  std::vector<double> take_replan_latencies();

  // ---- introspection ----

  /// Snapshot of the current platform (copy: safe under concurrency).
  Platform platform_snapshot();

  /// Mutation counter; stored plans and schedules are stamped with it.
  /// Lock-free, so reads and staleness accounting never block on an
  /// in-flight re-plan.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

  PlannerServiceStats stats();

 private:
  /// One queued re-plan: solve `source` at (at least) `version`.
  struct ReplanJob {
    NodeId source = 0;
    std::uint64_t version = 0;
  };

  /// The stored answer of one source: its newest plan and newest schedule,
  /// each stamped with the service version it answers.
  struct Answer {
    std::uint64_t plan_version = 0;
    std::shared_ptr<const SsbSolution> plan;
    std::uint64_t schedule_version = 0;
    std::shared_ptr<const PeriodicSchedule> schedule;
  };

  /// Warm session for `source`, creating (and LRU-evicting) as needed.
  /// Caller must hold the write guard.
  PlannerSession& session_locked(NodeId source);
  void evict_session_locked(NodeId source);
  /// The plan / schedule answering the current version: a store hit, else
  /// a laddered solve / a synthesis from plan_locked's plan, stored on the
  /// way out.  Caller must hold the write guard.
  std::shared_ptr<const SsbSolution> plan_locked(NodeId source, const LadderOptions& ladder);
  std::shared_ptr<const PeriodicSchedule> schedule_locked(NodeId source,
                                                          const LadderOptions& ladder);
  void note_tier_locked(PlanTier tier);
  void enqueue_replans();
  void worker_loop();
  void run_replan(ReplanJob job);

  // Lock order: guard_ before answers_mutex_ / queue_mutex_ (never the
  // other way; the two leaf mutexes are never held together).
  ParallelReadSerialWrite guard_;
  Platform platform_;                 ///< base platform (source = as loaded)
  std::vector<char> removed_;         ///< arcs removed from service
  PlannerServiceOptions options_;
  /// Written under the write guard; atomic so version() is lock-free.
  std::atomic<std::uint64_t> version_{0};

  /// Warm sessions, most recently used first.
  std::list<std::pair<NodeId, std::unique_ptr<PlannerSession>>> sessions_;

  /// One stored answer per source ever requested.  Readers take only
  /// answers_mutex_, never the guard; writes also hold the write guard.
  std::mutex answers_mutex_;
  std::map<NodeId, Answer> answers_;
  std::uint64_t plan_hits_ = 0;      ///< under answers_mutex_
  std::uint64_t schedule_hits_ = 0;  ///< under answers_mutex_

  // ---- async worker state ----
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  ///< job available / stop / resume
  std::condition_variable idle_cv_;   ///< job finished (drain / pause)
  std::deque<ReplanJob> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  bool worker_busy_ = false;
  std::vector<double> replan_latencies_;
  std::thread worker_;

  // Counter discipline: queries_ is bumped on the guard-free read path and
  // the replans_* counters on the worker thread, so they're atomic; the
  // hit counters live under answers_mutex_ and everything else only
  // changes under the write guard.
  std::atomic<std::uint64_t> queries_{0};
  std::uint64_t solves_ = 0;
  std::uint64_t schedules_built_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t sessions_created_ = 0;
  std::uint64_t sessions_evicted_ = 0;
  std::uint64_t plans_exact_ = 0;
  std::uint64_t plans_rebuild_ = 0;
  std::uint64_t plans_heuristic_ = 0;
  std::atomic<std::uint64_t> replans_enqueued_{0};
  std::atomic<std::uint64_t> replans_coalesced_{0};
  std::atomic<std::uint64_t> replans_run_{0};
  std::atomic<std::uint64_t> replan_retries_{0};
  std::atomic<std::uint64_t> replans_failed_{0};
};

}  // namespace bt
