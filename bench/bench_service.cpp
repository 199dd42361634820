// Benchmark of the broadcast-planning service (service/planner_service.hpp):
// the n=120 online-planner scenario of the ISSUE.
//
//   1. Cold start: first plan() per source (full cutting-plane solve).
//   2. Mixed stream: a seeded read/mutate request stream (experiments/
//      service_eval.hpp) replayed single-threaded -- read latencies and
//      "link degraded -> new plan in hand" re-plan latencies (p50/p99).
//   3. Concurrent reads: ThreadPool workers hammer throughput()/schedule()
//      on the stored answers -> queries/sec, readers taking only the
//      store's mutex.
//   4. Warm vs cold: alternating degrade/restore re-plans on the warm
//      session vs batch cold solves of the same mutated platforms.  The
//      acceptance target is warm >= 5x cold at n=120.
//
// Results go to BENCH_service.json (records + summary keys), gated by
// scripts/check_bench_regression.py against
// bench/baselines/BENCH_service_baseline.json and archived by the
// bench-smoke CI job alongside BENCH_lp.json.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/service_eval.hpp"
#include "platform/random_generator.hpp"
#include "service/planner_service.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct BenchRecord {
  std::string phase;
  std::string metric;
  double value = 0.0;
};

using Summary = std::vector<std::pair<std::string, std::string>>;

std::string num(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

bt::Platform instance(std::size_t n, std::uint64_t seed_scale) {
  bt::Rng rng(n * seed_scale);
  bt::RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = n <= 12 ? 0.25 : 0.12;
  return bt::generate_random_platform(config, rng);
}

void write_json(const std::vector<BenchRecord>& records, const Summary& summary) {
  std::ofstream out("BENCH_service.json");
  out << "{\n  \"bench\": \"service\",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    {\"phase\": \"" << r.phase << "\", \"metric\": \"" << r.metric
        << "\", \"value\": " << r.value << "}" << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ]";
  for (const auto& kv : summary) out << ",\n  \"" << kv.first << "\": " << kv.second;
  out << "\n}\n";
}

}  // namespace

int main() {
  using namespace bt;
  Timer total;
  std::vector<BenchRecord> records;
  Summary summary;

  constexpr std::size_t kNodes = 120;
  const Platform platform = instance(kNodes, 104729);
  const std::vector<NodeId> sources = {0, 7, 23, 61};

  std::cout << "bench_service: n=" << kNodes << ", m=" << platform.num_edges() << ", sources={";
  for (std::size_t i = 0; i < sources.size(); ++i)
    std::cout << (i ? "," : "") << sources[i];
  std::cout << "}\n";

  PlannerServiceOptions service_options;
  service_options.max_sessions = sources.size();
  PlannerService service(platform, service_options);

  // ---- phase 1: cold start -------------------------------------------------
  double cold_start_total_ms = 0.0;
  for (NodeId s : sources) {
    Timer t;
    const double tp = service.throughput(s);
    const double ms = t.millis();
    cold_start_total_ms += ms;
    records.push_back({"cold_start", "plan_ms_source_" + std::to_string(s), ms});
    std::cout << "  cold plan(source=" << s << "): TP*=" << tp << " in " << ms << " ms\n";
  }
  records.push_back({"cold_start", "total_ms", cold_start_total_ms});

  // ---- phase 2: mixed single-threaded stream -------------------------------
  ServiceStreamConfig stream_config;
  stream_config.num_requests = 240;
  stream_config.mutation_fraction = 0.1;
  stream_config.sources = sources;
  stream_config.seed = 104729;
  const auto stream = make_request_stream(platform, stream_config);
  const ServiceStreamResult replay = run_request_stream(service, stream);
  std::cout << "  stream reads:   " << describe(replay.reads) << "\n";
  std::cout << "  stream replans: " << describe(replay.replans) << "\n";
  records.push_back({"stream", "reads_p50_ms", replay.reads.p50_ms});
  records.push_back({"stream", "reads_p99_ms", replay.reads.p99_ms});
  records.push_back({"stream", "replan_p50_ms", replay.replans.p50_ms});
  records.push_back({"stream", "replan_p99_ms", replay.replans.p99_ms});
  records.push_back({"stream", "replan_mean_ms", replay.replans.mean_ms});
  records.push_back({"stream", "throughput_checksum", replay.throughput_checksum});

  // ---- phase 3: concurrent readers ----------------------------------------
  // The stream re-planned only the source of each mutation, and read
  // schedules only now and then, so the window opens on answers its last
  // mutations retired: the first reads per source solve or synthesize them
  // (a few uncached syntheses per run).  Every later read hits the store,
  // taking only its mutex.
  const std::size_t num_threads = ThreadPool::default_thread_count();
  const std::size_t reads_per_thread = 4000;
  std::atomic<double> sink{0.0};
  ThreadPool pool(num_threads);
  Timer read_timer;
  for (std::size_t w = 0; w < num_threads; ++w) {
    pool.submit([&, w] {
      double local = 0.0;
      for (std::size_t i = 0; i < reads_per_thread; ++i) {
        const NodeId s = sources[(w + i) % sources.size()];
        if (i % 8 == 0) {
          local += service.schedule(s)->throughput();
        } else {
          local += service.throughput(s);
        }
      }
      double expected = sink.load();
      while (!sink.compare_exchange_weak(expected, expected + local)) {
      }
    });
  }
  pool.wait();
  const double read_wall_ms = read_timer.millis();
  const double total_reads = static_cast<double>(num_threads * reads_per_thread);
  const double queries_per_sec = total_reads / (read_wall_ms / 1e3);
  std::cout << "  concurrent reads: " << total_reads << " over " << num_threads << " threads in "
            << read_wall_ms << " ms -> " << queries_per_sec << " queries/sec (checksum "
            << sink.load() << ")\n";
  records.push_back({"concurrent_reads", "threads", static_cast<double>(num_threads)});
  records.push_back({"concurrent_reads", "wall_ms", read_wall_ms});
  records.push_back({"concurrent_reads", "queries_per_sec", queries_per_sec});

  // ---- phase 4: warm vs cold re-plans --------------------------------------
  // The hot-source scenario: one source under monitoring, links degrade and
  // recover, every mutation is followed by a re-plan of that source.  A
  // fresh single-session service isolates the measurement from the answers
  // stored above; the cold reference is what a batch caller would run on
  // the same mutated platform (solve_ssb_cutting_plane from scratch).
  PlannerServiceOptions replan_options;
  replan_options.max_sessions = 1;
  PlannerService replan_service(platform, replan_options);
  const NodeId hot_source = 0;
  replan_service.throughput(hot_source);  // warm up the session

  const std::size_t replan_cycles = 8;
  std::vector<double> warm_ms, cold_ms;
  Rng replan_rng(7919);
  double warm_checksum = 0.0, cold_checksum = 0.0;
  for (std::size_t c = 0; c < replan_cycles; ++c) {
    const EdgeId e = static_cast<EdgeId>(replan_rng.index(platform.num_edges()));
    const double factor = (c % 2 == 0) ? 1.5 : 1.0 / 1.5;
    Timer warm_timer;
    replan_service.scale_link_time(e, factor);
    warm_checksum += replan_service.throughput(hot_source);
    warm_ms.push_back(warm_timer.millis());

    const Platform mutated = replan_service.platform_snapshot();
    Timer cold_timer;
    const SsbSolution cold = solve_ssb_cutting_plane(mutated);
    cold_ms.push_back(cold_timer.millis());
    cold_checksum += cold.throughput;
  }
  const LatencySummary warm_summary = summarize_latencies(warm_ms);
  const LatencySummary cold_summary = summarize_latencies(cold_ms);
  const double speedup = warm_summary.mean_ms > 0.0 ? cold_summary.mean_ms / warm_summary.mean_ms
                                                    : std::numeric_limits<double>::infinity();
  const double agreement = std::abs(warm_checksum - cold_checksum) /
                           std::max(1.0, std::abs(cold_checksum));
  std::cout << "  warm replans: " << describe(warm_summary) << "\n";
  std::cout << "  cold solves:  " << describe(cold_summary) << "\n";
  std::cout << "  warm-over-cold speedup: " << speedup << "x (checksum rel diff " << agreement
            << ")\n";
  records.push_back({"replan", "warm_mean_ms", warm_summary.mean_ms});
  records.push_back({"replan", "warm_p99_ms", warm_summary.p99_ms});
  records.push_back({"replan", "cold_mean_ms", cold_summary.mean_ms});

  const PlannerServiceStats stats = service.stats();
  std::cout << "  service stats: " << stats.queries << " queries, " << stats.plan_cache_hits
            << " plan hits, " << stats.schedule_cache_hits << " schedule hits, " << stats.solves
            << " solves, " << stats.mutations << " mutations, " << stats.sessions_created
            << " sessions\n";

  summary.push_back({"service_nodes", num(static_cast<double>(kNodes))});
  summary.push_back({"service_queries_per_sec", num(queries_per_sec)});
  summary.push_back({"service_replan_p99_ms", num(replay.replans.p99_ms)});
  summary.push_back({"service_replan_p50_ms", num(replay.replans.p50_ms)});
  summary.push_back({"service_warm_over_cold_speedup", num(speedup)});
  summary.push_back({"service_warm_cold_agreement", num(agreement)});
  summary.push_back({"service_warm_cold_agree", agreement <= 1e-9 ? "true" : "false"});

  write_json(records, summary);
  std::cout << "\nwrote BENCH_service.json (" << records.size() << " records, " << summary.size()
            << " summary fields) in " << total.millis() / 1e3 << " s\n";
  return 0;
}
