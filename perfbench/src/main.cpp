// perfbench: the repository benchmark driver.
//
//   perfbench --workload <link_replan|link_schedule|cold_plan> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--corrupt-schedule]
//             [--trace-out <file.jsonl>]
//
// Prints the run context, the metrics by name with their units, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when the run completed (whether or not every check passed),
// 2 on bad arguments, 1 when the run could not start.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--corrupt-schedule] [--trace-out <file>]\n";
  return 2;
}

bool parse_uint(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    std::uint64_t u = 0;
    if (arg == "--workload") {
      if (!value(options.workload)) return usage("--workload needs a value");
      have_workload = true;
    } else if (arg == "--seed") {
      if (!value(v) || !parse_uint(v, u)) return usage("--seed needs a non-negative integer");
      options.seed = u;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!value(v) || !parse_uint(v, u) || u == 0 || u > 600) {
        return usage("--seconds needs an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!value(v) || (v != "0" && v != "1")) return usage("--trace needs 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-schedule") {
      options.corrupt_schedule = true;
    } else if (arg == "--trace-out") {
      if (!value(options.trace_out)) return usage("--trace-out needs a path");
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunReport report;
  try {
    report = perfbench::run(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& line : report.lines) std::cout << line << "\n";
  for (const auto& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
