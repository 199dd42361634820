#pragma once

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer's public functions.
//
// A span covers one call (plan, schedule, a batch solve, a replay, ...).  It
// belongs to one operation -- a timed step or a check -- and all spans of an
// operation share its id.  At close, the span carries the layer self times
// and counters the call's public result already reports (master_wall_ms,
// phase_stats, lp_stats, rounds and cuts, TreeDecomposition counts) as
// named attributes, e.g. "flow.separation_ms" or "lp.dual_pivots"; the
// per-layer metrics are aggregates of those attributes over operations.
//
// Nothing here reaches into the library: a layer's self time is what the
// library reports for it, and the calling layer's self time is the span's
// duration minus those parts (see workloads.cpp).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolation quantile (q in [0,1]) of `v`; 0 for an empty input.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Span {
  std::string call;      ///< public function wrapped ("plan", "schedule", ...)
  std::uint64_t op = 0;  ///< operation id shared by the spans of one step/check
  bool timed = false;    ///< inside a timed step (else a check or set-up)
  double start_ms = 0.0, end_ms = 0.0;  ///< relative to the trace origin
  std::vector<std::pair<std::string, double>> attrs;

  double duration_ms() const { return end_ms - start_ms; }
  void set(const std::string& name, double value) { attrs.emplace_back(name, value); }
};

/// In-memory span store; written out once, when the run ends.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// `t` in ms since the trace origin.
  double at(Clock::time_point t) const { return ms_between(origin_, t); }

  /// Records a finished span (no-op when tracing is off).
  void add(Span span);

  /// Per-operation sums of every attribute, keyed by operation id.
  std::map<std::uint64_t, std::map<std::string, double>> per_op_totals(bool timed_only) const;

  /// Median over the operations that recorded `attr` of its per-operation
  /// sum (timed steps first; falls back to check operations when no timed
  /// step touched the layer).  0 when no operation recorded it.
  double op_median(const std::string& attr) const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
