#include "service/planner_service.hpp"

#include <chrono>
#include <utility>

#include "sched/orchestrate.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bt {

namespace {

/// Re-plan attempts after a failed one (transient faults), with a linear
/// backoff of kReplanRetryBackoffMs per attempt between them.
constexpr std::size_t kReplanMaxRetries = 2;
constexpr double kReplanRetryBackoffMs = 1.0;

}  // namespace

PlannerService::PlannerService(Platform platform, PlannerServiceOptions options)
    : platform_(std::move(platform)), removed_(platform_.num_edges(), 0), options_(options) {
  BT_REQUIRE(options_.max_sessions > 0, "PlannerService: max_sessions must be positive");
  if (options_.async_replan) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

PlannerService::~PlannerService() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    worker_.join();
  }
}

PlannerSession& PlannerService::session_locked(NodeId source) {
  BT_REQUIRE(source < platform_.num_nodes(), "PlannerService: source out of range");
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->first == source) {
      sessions_.splice(sessions_.begin(), sessions_, it);
      return *sessions_.front().second;
    }
  }
  // Cold session: rebase the current platform on the requested source and
  // replay the removals so the session sees the service's live topology.
  auto session = std::make_unique<PlannerSession>(platform_.with_source(source),
                                                  options_.session);
  for (EdgeId e = 0; e < removed_.size(); ++e) {
    if (removed_[e]) session->remove_link(e);
  }
  sessions_.emplace_front(source, std::move(session));
  ++sessions_created_;
  if (sessions_.size() > options_.max_sessions) {
    sessions_.pop_back();
    ++sessions_evicted_;
  }
  return *sessions_.front().second;
}

void PlannerService::evict_session_locked(NodeId source) {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->first == source) {
      sessions_.erase(it);
      ++sessions_evicted_;
      return;
    }
  }
}

void PlannerService::note_tier_locked(PlanTier tier) {
  switch (tier) {
    case PlanTier::kExact: ++plans_exact_; break;
    case PlanTier::kRebuild: ++plans_rebuild_; break;
    case PlanTier::kHeuristic: ++plans_heuristic_; break;
  }
}

std::shared_ptr<const SsbSolution> PlannerService::plan_locked(NodeId source,
                                                               const LadderOptions& ladder) {
  {
    // Re-check under the exclusive lock: another writer may have solved
    // this version while we waited to escalate.
    std::lock_guard<std::mutex> lock(answers_mutex_);
    const auto it = answers_.find(source);
    if (it != answers_.end() && it->second.plan != nullptr &&
        it->second.plan_version == version_) {
      return it->second.plan;
    }
  }
  FaultScope scope(options_.faults);
  // Injected mid-stream eviction: the warm session vanishes just before the
  // solve, so the answer comes from a cold rebuild (still kExact -- the
  // ladder tiers describe *how* a solve concluded, not its warmth).
  if (fault_fire(FaultSite::kSessionEviction)) evict_session_locked(source);
  PlannerSession& session = session_locked(source);
  auto solution = std::make_shared<const SsbSolution>(session.solve_laddered(ladder));
  ++solves_;
  note_tier_locked(solution->tier);
  std::lock_guard<std::mutex> lock(answers_mutex_);
  Answer& answer = answers_[source];
  answer.plan_version = version_;
  answer.plan = solution;
  return solution;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule_locked(
    NodeId source, const LadderOptions& ladder) {
  {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    const auto it = answers_.find(source);
    if (it != answers_.end() && it->second.schedule != nullptr &&
        it->second.schedule_version == version_) {
      return it->second.schedule;
    }
  }
  // The schedule executes the served plan: synthesized from exactly the
  // plan stored for this version, never from whichever solver is fresh.
  // The base platform rebased on the source carries bitwise the session's
  // arc costs, so a schedule read neither creates nor evicts a session.
  // Synthesis fans out over the sessions' worker pool, so a caller pinning
  // the pool width (the churn determinism matrix) covers it too, and runs
  // outside the FaultScope: faults target solves.
  const std::shared_ptr<const SsbSolution> plan = plan_locked(source, ladder);
  OrchestrationOptions orchestration;
  orchestration.port_model = options_.session.cutting.port_model;
  orchestration.pool = options_.session.cutting.pool;
  TreeDecompositionOptions decomposition;
  decomposition.pool = options_.session.cutting.pool;
  auto schedule = std::make_shared<const PeriodicSchedule>(synthesize_schedule(
      platform_.with_source(source), *plan, orchestration, decomposition));
  ++schedules_built_;
  std::lock_guard<std::mutex> lock(answers_mutex_);
  Answer& answer = answers_[source];
  answer.schedule_version = version_;
  answer.schedule = schedule;
  return schedule;
}

double PlannerService::throughput(NodeId source) { return plan(source)->throughput; }

// The read path takes only answers_mutex_: a stored plan or schedule
// answers a read when it is stamped with the version the read saw, or in
// async mode whenever it is stored (the last-good answer).  A miss escalates
// to the write guard.

std::shared_ptr<const SsbSolution> PlannerService::plan(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seen = version();
  {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    const auto it = answers_.find(source);
    if (it != answers_.end() && it->second.plan != nullptr &&
        (options_.async_replan || it->second.plan_version == seen)) {
      ++plan_hits_;
      return it->second.plan;
    }
  }
  WriteGuard lock(guard_);
  auto plan = plan_locked(source, options_.ladder);
  // Async mode only misses before a source's first answer: build its
  // schedule too, so polls and the worker have a whole answer to hand out
  // and refresh.
  if (options_.async_replan) schedule_locked(source, options_.ladder);
  return plan;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seen = version();
  {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    const auto it = answers_.find(source);
    if (it != answers_.end() && it->second.schedule != nullptr &&
        (options_.async_replan || it->second.schedule_version == seen)) {
      ++schedule_hits_;
      return it->second.schedule;
    }
  }
  WriteGuard lock(guard_);
  return schedule_locked(source, options_.ladder);
}

std::shared_ptr<const PeriodicSchedule> PlannerService::poll_schedule(ScheduleSubscription& sub) {
  // Store lock only: a poll at a period boundary must not block on the
  // worker's write-guarded solve -- that wait is exactly the staleness the
  // async mode exists to hide.
  std::lock_guard<std::mutex> lock(answers_mutex_);
  const auto it = answers_.find(sub.source);
  if (it == answers_.end() || it->second.schedule == nullptr) return nullptr;
  const std::uint64_t built = it->second.schedule_version;
  if (sub.seen_version != ScheduleSubscription::kNone && built <= sub.seen_version) {
    return nullptr;
  }
  sub.seen_version = built;
  return it->second.schedule;
}

// ---- async worker -----------------------------------------------------------

void PlannerService::enqueue_replans() {
  if (!options_.async_replan) return;
  // Re-plan every source with a stored answer.  Sources nobody asked about
  // yet have nothing to refresh.
  std::vector<NodeId> targets;
  {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    targets.reserve(answers_.size());
    for (const auto& entry : answers_) targets.push_back(entry.first);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (NodeId source : targets) {
      bool coalesced = false;
      for (ReplanJob& job : queue_) {
        if (job.source == source) {
          // A queued job for this source is superseded: lift it to the new
          // version instead of queueing a second solve of a stale state.
          job.version = version_;
          coalesced = true;
          replans_coalesced_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (coalesced) continue;
      queue_.push_back({source, version_});
      replans_enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  queue_cv_.notify_one();
}

void PlannerService::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || (!queue_.empty() && !paused_); });
    if (stopping_) return;
    const ReplanJob job = queue_.front();
    queue_.pop_front();
    worker_busy_ = true;
    lock.unlock();
    run_replan(job);
    lock.lock();
    worker_busy_ = false;
    idle_cv_.notify_all();
  }
}

void PlannerService::run_replan(ReplanJob job) {
  Timer latency;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      WriteGuard lock(guard_);
      // The solve always runs against the *current* state -- job.version is
      // a floor, not a pin; coalescing means the newest mutation wins.
      LadderOptions ladder = options_.ladder;
      // Retries exist to recover the LP optimum from a transient fault;
      // only the final attempt is allowed to degrade to the heuristic.
      if (attempt < kReplanMaxRetries) ladder.allow_heuristic = false;
      schedule_locked(job.source, ladder);
      replans_run_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> latency_lock(queue_mutex_);
        replan_latencies_.push_back(latency.millis());
      }
      return;
    } catch (const Error&) {
      if (attempt >= kReplanMaxRetries) {
        // Out of retries: the last-good answer stays stored (stale but
        // answerable); the next mutation or direct request tries again.
        // Never let an exception escape the worker thread.
        replans_failed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      replan_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          kReplanRetryBackoffMs * static_cast<double>(attempt + 1)));
    }
  }
}

void PlannerService::drain_replans() {
  if (!options_.async_replan) return;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [&] { return (queue_.empty() || paused_) && !worker_busy_; });
}

void PlannerService::pause_replans() {
  if (!options_.async_replan) return;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  paused_ = true;
  // Wait out an in-flight job so callers get a real barrier: after pause,
  // no solve is running and none will start until resume.
  idle_cv_.wait(lock, [&] { return !worker_busy_; });
}

void PlannerService::resume_replans() {
  if (!options_.async_replan) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_one();
}

std::vector<double> PlannerService::take_replan_latencies() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return std::exchange(replan_latencies_, {});
}

// ---- write requests ---------------------------------------------------------

void PlannerService::set_link_cost(EdgeId e, LinkCost cost) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    platform_.set_link_cost(e, cost);
    removed_[e] = 0;
    for (auto& entry : sessions_) entry.second->set_link_cost(e, cost);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

void PlannerService::scale_link_time(EdgeId e, double factor) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    LinkCost cost = platform_.link_cost(e);
    cost.alpha *= factor;
    cost.beta *= factor;
    platform_.set_link_cost(e, cost);
    removed_[e] = 0;
    for (auto& entry : sessions_) entry.second->scale_link_time(e, factor);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

void PlannerService::remove_link(EdgeId e) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    removed_[e] = 1;
    for (auto& entry : sessions_) entry.second->remove_link(e);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

NodeId PlannerService::add_node(const std::vector<SessionLink>& in_links,
                                const std::vector<SessionLink>& out_links) {
  NodeId node;
  {
    WriteGuard lock(guard_);
    platform_ = grow_platform(platform_, in_links, out_links);
    removed_.resize(platform_.num_edges(), 0);
    for (auto& entry : sessions_) entry.second->add_node(in_links, out_links);
    ++mutations_;
    ++version_;
    node = static_cast<NodeId>(platform_.num_nodes() - 1);
  }
  enqueue_replans();
  return node;
}

void PlannerService::remove_node(NodeId node, ShrinkRemap* remap) {
  WriteGuard lock(guard_);
  ShrinkRemap local;
  // Validates node != source and >= 3 nodes; throws (via the Platform
  // constructor) if the leave disconnects the remaining platform.
  Platform shrunk = shrink_platform(platform_, node, &local);
  std::vector<char> compact_removed;
  compact_removed.reserve(shrunk.num_edges());
  for (EdgeId e = 0; e < removed_.size(); ++e) {
    if (local.edge_map[e] != Digraph::npos) compact_removed.push_back(removed_[e]);
  }
  platform_ = std::move(shrunk);
  removed_ = std::move(compact_removed);
  // Structural fallback, service-wide: every warm session, stored answer,
  // poll cursor and queued job speaks the old id space.  Drop them all; the
  // next request per source solves cold against the compact platform
  // (consumers re-subscribe through the remap).
  sessions_evicted_ += sessions_.size();
  sessions_.clear();
  {
    std::lock_guard<std::mutex> answers_lock(answers_mutex_);
    answers_.clear();
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    queue_.clear();
  }
  ++mutations_;
  ++version_;
  if (remap != nullptr) *remap = std::move(local);
}

// ---- introspection ----------------------------------------------------------

Platform PlannerService::platform_snapshot() {
  ReadGuard lock(guard_);
  return platform_;
}

PlannerServiceStats PlannerService::stats() {
  WriteGuard lock(guard_);
  PlannerServiceStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> answers_lock(answers_mutex_);
    out.plan_cache_hits = plan_hits_;
    out.schedule_cache_hits = schedule_hits_;
  }
  out.solves = solves_;
  out.schedules_built = schedules_built_;
  out.mutations = mutations_;
  out.sessions_created = sessions_created_;
  out.sessions_evicted = sessions_evicted_;
  out.plans_exact = plans_exact_;
  out.plans_rebuild = plans_rebuild_;
  out.plans_heuristic = plans_heuristic_;
  out.replans_enqueued = replans_enqueued_.load(std::memory_order_relaxed);
  out.replans_coalesced = replans_coalesced_.load(std::memory_order_relaxed);
  out.replans_run = replans_run_.load(std::memory_order_relaxed);
  out.replan_retries = replan_retries_.load(std::memory_order_relaxed);
  out.replans_failed = replans_failed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace bt
