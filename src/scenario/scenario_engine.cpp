#include "scenario/scenario_engine.hpp"

#include <cstring>
#include <memory>
#include <utility>

#include "sim/replay_session.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bt {

namespace {

bool bits_equal(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// TP* of the live platform from a throwaway cold session (the offline
/// reference an omniscient re-planner would hit).
double offline_reference(const Platform& live, const std::vector<char>& removed,
                         NodeId source, const PlannerSessionOptions& options) {
  PlannerSession session(live.with_source(source), options);
  for (EdgeId e = 0; e < removed.size(); ++e) {
    if (removed[e]) session.remove_link(e);
  }
  return session.throughput();
}

}  // namespace

ChurnScenarioResult run_churn_scenario(const Platform& platform,
                                       const ChurnScenarioOptions& options) {
  // Leaves compact node ids, so the source's id can shift mid-scenario.
  NodeId source = platform.source();
  const ChurnTimeline timeline = make_churn_timeline(platform, options.timeline);

  ChurnScenarioOptions opts = options;
  opts.service.session.cutting.pool = options.pool;
  opts.service.session.colgen.pool = options.pool;
  const bool async = opts.service.async_replan;
  PlannerService service(platform, opts.service);
  ScheduleSubscription sub;
  sub.source = source;

  // The engine's mirror of the service's live topology: the replayer
  // executes against this, not against the planning view.
  Platform live = platform;
  std::vector<char> removed(platform.num_edges(), 0);

  ChurnScenarioResult result;
  result.periods.reserve(options.timeline.num_periods);

  // Initial plan and the schedule executing it.
  PlanTier installed_tier = service.plan(source)->tier;
  auto installed = service.schedule(source);
  service.poll_schedule(sub);  // adopt the initial build's version
  std::uint64_t installed_version = sub.seen_version;
  ReplaySession replay(live, installed);
  if (options.warm_handoff) {
    // Start in steady state: the scenario window opens on a broadcast that
    // is already running, so a quiet timeline loses nothing and every loss
    // recorded below is churn, not the startup fill transient.
    replay.install(live, installed, /*warm_handoff=*/true);
  }

  double offline_tp = offline_reference(live, removed, source, opts.service.session);

  std::size_t next_event = 0;
  for (std::size_t p = 0; p < options.timeline.num_periods; ++p) {
    // 1. Pick up a re-plan finished at an earlier boundary (hot-swap).  In
    // async mode, drain first: the worker finishes every job queued by the
    // previous boundary's batch, so which builds exist at each boundary is
    // a function of the timeline, never of worker timing.
    if (async) {
      service.drain_replans();
      for (double ms : service.take_replan_latencies()) {
        result.replan_latency_ms.push_back(ms);
      }
    }
    if (auto fresh = service.poll_schedule(sub)) {
      replay.install(live, fresh, options.warm_handoff);
      installed_version = sub.seen_version;
      // Pre-events, the service's newest plan is the one behind the build
      // the poll just returned, so this read is its tier (a store hit, no
      // solve).
      installed_tier = service.plan(source)->tier;
      ++result.num_swaps;
    }

    // 2. Apply this boundary's events to the service.  Synchronous mode
    // re-plans inline after each; async mode pauses the worker so the whole
    // batch coalesces into one re-plan of the final state on resume.
    if (async) service.pause_replans();
    std::uint64_t events_applied = 0;
    bool left = false;
    while (next_event < timeline.events.size() &&
           timeline.events[next_event].period == p) {
      const ChurnEvent& event = timeline.events[next_event];
      switch (event.kind) {
        case ChurnEventKind::kDegrade: {
          service.scale_link_time(event.edge, event.factor);
          LinkCost cost = live.link_cost(event.edge);
          cost.alpha *= event.factor;
          cost.beta *= event.factor;
          live.set_link_cost(event.edge, cost);
          ++result.num_degrades;
          break;
        }
        case ChurnEventKind::kRecover:
          service.set_link_cost(event.edge, event.cost);
          live.set_link_cost(event.edge, event.cost);
          ++result.num_recoveries;
          break;
        case ChurnEventKind::kLinkFailure:
          service.remove_link(event.edge);
          removed[event.edge] = 1;
          ++result.num_failures;
          break;
        case ChurnEventKind::kNodeJoin:
          service.add_node(event.in_links, event.out_links);
          live = grow_platform(live, event.in_links, event.out_links);
          removed.resize(live.num_edges(), 0);
          ++result.num_joins;
          break;
        case ChurnEventKind::kNodeLeave: {
          // Mirror the service's id compaction onto the engine's live view.
          // Both run shrink_platform on identical topology, so the remap
          // the service hands back applies verbatim to `live`'s arc ids.
          ShrinkRemap remap;
          service.remove_node(event.node, &remap);
          live = shrink_platform(live, event.node);
          std::vector<char> compact_removed(live.num_edges(), 0);
          for (EdgeId e = 0; e < remap.edge_map.size(); ++e) {
            if (remap.edge_map[e] != Digraph::npos) {
              compact_removed[remap.edge_map[e]] = removed[e];
            }
          }
          removed = std::move(compact_removed);
          source = remap.node_map[source];
          left = true;
          ++result.num_leaves;
          break;
        }
      }
      if (!async) {
        Timer replan;
        service.plan(source);
        service.schedule(source);
        result.replan_latency_ms.push_back(replan.millis());
      }
      ++events_applied;
      ++next_event;
      ++result.num_events;
    }
    if (async) service.resume_replans();

    if (left) {
      // A leave dropped every session, stored answer and queued job, and the
      // installed schedule addresses the old id space -- force a
      // synchronous re-plan (even in async mode) and rebuild the replayer,
      // whose install() cannot shrink its platform.
      Timer replan;
      service.plan(source);
      auto fresh = service.schedule(source);
      if (async) result.replan_latency_ms.push_back(replan.millis());
      sub = ScheduleSubscription{};
      sub.source = source;
      service.poll_schedule(sub);
      installed_version = sub.seen_version;
      installed_tier = service.plan(source)->tier;
      replay = ReplaySession(live, fresh);
      if (options.warm_handoff) {
        replay.install(live, fresh, /*warm_handoff=*/true);
      }
    }
    if (events_applied > 0) {
      offline_tp = offline_reference(live, removed, source, opts.service.session);
    }

    // 3. Execute one period of the installed schedule on the live platform.
    replay.set_platform(live, removed);
    const PeriodDelivery delivery = replay.run_period();

    ChurnPeriodRecord record;
    record.period = p;
    record.schedule_version = installed_version;
    record.events_applied = events_applied;
    record.live_nodes = live.num_nodes();
    record.period_seconds = delivery.seconds;
    record.designed_slices = delivery.designed_slices;
    record.delivered_total = delivery.delivered_total;
    record.min_delivered = delivery.min_delivered;
    record.lost_slices = delivery.lost_slices;
    record.offline_throughput = offline_tp;
    record.tier = static_cast<std::uint32_t>(installed_tier);
    record.stale = installed_version < service.version() ? 1 : 0;
    result.stale_periods += record.stale;
    switch (installed_tier) {
      case PlanTier::kExact: ++result.periods_exact; break;
      case PlanTier::kRebuild: ++result.periods_rebuild; break;
      case PlanTier::kHeuristic: ++result.periods_heuristic; break;
    }
    result.periods.push_back(record);

    result.delivered_total += delivery.delivered_total;
    result.lost_total += delivery.lost_slices;
    result.offline_capacity +=
        offline_tp * delivery.seconds * static_cast<double>(live.num_nodes() - 1);
  }

  if (async) {
    // Jobs queued by the final boundary: finish and account for them.
    service.drain_replans();
    for (double ms : service.take_replan_latencies()) {
      result.replan_latency_ms.push_back(ms);
    }
  }
  result.replans_failed = service.stats().replans_failed;

  result.availability =
      result.offline_capacity > 0.0 ? result.delivered_total / result.offline_capacity : 0.0;
  return result;
}

bool payload_bitwise_equal(const ChurnScenarioResult& a, const ChurnScenarioResult& b) {
  if (a.periods.size() != b.periods.size()) return false;
  for (std::size_t i = 0; i < a.periods.size(); ++i) {
    const ChurnPeriodRecord& x = a.periods[i];
    const ChurnPeriodRecord& y = b.periods[i];
    if (x.period != y.period || x.schedule_version != y.schedule_version ||
        x.events_applied != y.events_applied || x.live_nodes != y.live_nodes ||
        x.tier != y.tier || x.stale != y.stale)
      return false;
    if (!bits_equal(x.period_seconds, y.period_seconds) ||
        !bits_equal(x.designed_slices, y.designed_slices) ||
        !bits_equal(x.delivered_total, y.delivered_total) ||
        !bits_equal(x.min_delivered, y.min_delivered) ||
        !bits_equal(x.lost_slices, y.lost_slices) ||
        !bits_equal(x.offline_throughput, y.offline_throughput))
      return false;
  }
  return bits_equal(a.delivered_total, b.delivered_total) &&
         bits_equal(a.lost_total, b.lost_total) &&
         bits_equal(a.offline_capacity, b.offline_capacity) &&
         bits_equal(a.availability, b.availability) && a.num_events == b.num_events &&
         a.num_swaps == b.num_swaps && a.num_degrades == b.num_degrades &&
         a.num_recoveries == b.num_recoveries && a.num_failures == b.num_failures &&
         a.num_joins == b.num_joins && a.num_leaves == b.num_leaves &&
         a.stale_periods == b.stale_periods && a.periods_exact == b.periods_exact &&
         a.periods_rebuild == b.periods_rebuild &&
         a.periods_heuristic == b.periods_heuristic && a.replans_failed == b.replans_failed;
}

}  // namespace bt
