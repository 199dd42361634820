#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Trace::add(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

std::map<std::uint64_t, std::map<std::string, double>> Trace::per_op_totals(bool timed_only) const {
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (const Span& s : spans_) {
    if (timed_only && !s.timed) continue;
    auto& totals = out[s.op];
    for (const auto& [name, value] : s.attrs) totals[name] += value;
  }
  return out;
}

namespace {

std::vector<double> collect(const std::map<std::uint64_t, std::map<std::string, double>>& ops,
                            const std::string& attr) {
  std::vector<double> values;
  for (const auto& [op, totals] : ops) {
    const auto it = totals.find(attr);
    if (it != totals.end()) values.push_back(it->second);
  }
  return values;
}

}  // namespace

double Trace::op_median(const std::string& attr) const {
  std::vector<double> values = collect(per_op_totals(true), attr);
  if (values.empty()) values = collect(per_op_totals(false), attr);
  return median(std::move(values));
}

void Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(10);
  for (const Span& s : spans_) {
    out << "{\"call\": \"" << s.call << "\", \"op\": " << s.op
        << ", \"timed\": " << (s.timed ? "true" : "false") << ", \"start_ms\": " << s.start_ms
        << ", \"end_ms\": " << s.end_ms;
    for (const auto& [name, value] : s.attrs) out << ", \"" << name << "\": " << value;
    out << "}\n";
  }
}

}  // namespace perfbench
