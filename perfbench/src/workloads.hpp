#pragma once

// The three benchmark workloads (see ../README.md for why each exists):
//
//   link_replan    one link delta, then plan() for the next warm source
//   link_schedule  one link delta, then plan() + schedule() for it
//   cold_plan      a fixed platform set solved cold by both batch solvers,
//                  every solution synthesized into a schedule
//
// Each run sets up several times (setup_s is the median), measures timed
// steps until their summed latency reaches the requested seconds, and checks
// outputs outside the timed windows.  A traced run additionally records
// spans (trace.hpp) and reports per-layer metrics instead of end-to-end ones.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny platforms and a check on every step (the benchmark's own tests).
  bool smoke = false;
  /// Corrupt the first schedule handed to check_schedule (self-test of the
  /// failure accounting: that step must count as failed).
  bool corrupt_schedule = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  std::vector<std::string> lines;  ///< human-readable context and tables
  std::vector<Metric> metrics;     ///< end-to-end (untraced) or per-layer (traced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Names of the workloads run() accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload.  Throws (bt::Error or std::exception) only when the
/// run cannot start -- bad options or a failed set-up; failures of timed or
/// checked operations are counted in the report instead.
RunReport run(const RunOptions& options);

}  // namespace perfbench
