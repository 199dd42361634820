#!/usr/bin/env python3
"""CI perf-regression guard for the BENCH_*.json archives.

Compares key summary fields of a freshly produced bench archive against its
checked-in baseline (bench/baselines/) with generous tolerances: shared CI
runners are noisy, so only *large* regressions fail the bench-smoke job.
The archive kind is dispatched on its "bench" field.

BENCH_lp.json (bench "lp_solvers"):
  * the cutting-plane incremental-vs-rebuild master speedups must not fall
    below `SPEEDUP_FLOOR_FACTOR` times the baseline value;
  * reach-fraction fields must not grow above `REACH_CEILING_FACTOR` times
    the baseline (a jump there means hypersparse solves stopped engaging);
  * `cutting_bitwise_agree` and `insolver_bitwise_agree` must stay true
    (correctness, no tolerance).

BENCH_service.json (bench "service"):
  * `service_warm_over_cold_speedup` and `service_queries_per_sec` are
    floors (times `SPEEDUP_FLOOR_FACTOR` of baseline);
  * `service_replan_p99_ms` is a ceiling (`LATENCY_CEILING_FACTOR` times
    baseline -- a p99 over a short CI stream needs the widest berth);
  * `service_warm_cold_agree` must stay true (warm re-plans match cold
    solves; correctness, no tolerance).

BENCH_churn.json (bench "churn"):
  * `churn_availability` must stay above the absolute acceptance floor
    `CHURN_AVAILABILITY_FLOOR` (delivered work vs the offline re-solved
    optimum at the gate size) AND above `AVAILABILITY_FLOOR_FACTOR` times
    the baseline value;
  * `churn_bitwise_agree` must stay true (the scenario payload is
    field-wise bitwise-identical across pool widths {1,2,4}, a same-seed
    repeat, and the default-pool sweep run; correctness, no tolerance);
  * re-plan latency quantiles are recorded, never gated (shared runners).

BENCH_faults.json (bench "faults"):
  * `faults_availability` must stay above the absolute acceptance floor
    `FAULTS_AVAILABILITY_FLOOR` (async re-planning under injected solver
    faults and deadline budgets at the gate size) AND above
    `AVAILABILITY_FLOOR_FACTOR` times the baseline value;
  * `faults_bitwise_agree` must stay true (faulted recovery is field-wise
    bitwise-identical across pool widths {1,2,4}, a same-seed repeat, and
    the default-pool sweep run; correctness, no tolerance);
  * tier mix, staleness, fired-trigger counts and latency quantiles are
    recorded, never gated.

Usage: check_bench_regression.py <BENCH_x.json> <baseline.json>
"""

import json
import sys

SPEEDUP_FLOOR_FACTOR = 0.4     # fail when a speedup/rate drops below 40% of baseline
REACH_CEILING_FACTOR = 2.0     # fail when a reach fraction doubles
REACH_ABS_SLACK = 0.10         # ... with this much absolute headroom on top
LATENCY_CEILING_FACTOR = 3.0   # fail when a latency triples

LP_SPEEDUP_FIELDS = [
    "cutting_master_speedup_incremental_n80",
    "cutting_speedup_incremental_n80",
]
LP_REACH_FIELDS = [
    "cutting_ftran_reach_fraction_n80",
    "cutting_btran_reach_fraction_n80",
    "colgen_btran_reach_fraction_n80",
]
# In-solver thread-scaling summary (the 1-vs-N-thread oracle block): printed
# for the CI log, never gated -- 2-vCPU shared runners cannot produce a
# stable parallel speedup, so any floor here would only flake.  The bitwise
# agreement between pool widths IS gated (correctness, not performance).
LP_RECORD_ONLY_FIELDS = [
    "insolver_threads",
    "insolver_cutting_nodes",
    "insolver_cutting_wall_ms_width1",
    "insolver_cutting_wall_ms_widthN",
    "insolver_cutting_speedup",
    "insolver_cutting_separation_wall_ms",
    "insolver_colgen_nodes",
    "insolver_colgen_wall_ms_width1",
    "insolver_colgen_wall_ms_widthN",
    "insolver_colgen_speedup",
    "insolver_colgen_pricing_wall_ms",
]

SERVICE_FLOOR_FIELDS = [
    "service_warm_over_cold_speedup",
    "service_queries_per_sec",
]
SERVICE_CEILING_FIELDS = [
    "service_replan_p99_ms",
]

CHURN_AVAILABILITY_FLOOR = 0.90     # the ISSUE's absolute acceptance bound
AVAILABILITY_FLOOR_FACTOR = 0.97    # and availability must stay near baseline
CHURN_RECORD_ONLY_FIELDS = [
    "churn_gate_nodes",
    "churn_gate_rate",
    "churn_lost_fraction",
    "churn_events",
    "churn_swaps",
    "churn_replan_p50_ms",
    "churn_replan_p99_ms",
    "churn_replan_max_ms",
]

FAULTS_AVAILABILITY_FLOOR = 0.95    # the ISSUE's absolute acceptance bound under faults
FAULTS_RECORD_ONLY_FIELDS = [
    "faults_gate_nodes",
    "faults_fired",
    "faults_stale_fraction",
    "faults_periods_exact",
    "faults_periods_rebuild",
    "faults_periods_heuristic",
    "faults_replans_failed",
    "faults_leaves",
    "faults_replan_p50_ms",
    "faults_replan_p99_ms",
]


class Checker:
    def __init__(self, current, baseline):
        self.current = current
        self.baseline = baseline
        self.failures = []
        self.checked = 0

    def floor(self, field, factor):
        if field not in self.baseline:
            return
        base = float(self.baseline[field])
        if field not in self.current:
            self.failures.append(f"{field}: missing from current archive")
            return
        cur = float(self.current[field])
        floor = base * factor
        self.checked += 1
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"{field}: current {cur:.2f} vs baseline {base:.2f} (floor {floor:.2f}) {status}")
        if cur < floor:
            self.failures.append(f"{field}: {cur:.2f} < floor {floor:.2f} (baseline {base:.2f})")

    def ceiling(self, field, factor, abs_slack=0.0):
        if field not in self.baseline:
            return
        base = float(self.baseline[field])
        if field not in self.current:
            self.failures.append(f"{field}: missing from current archive")
            return
        cur = float(self.current[field])
        ceiling = base * factor + abs_slack
        self.checked += 1
        status = "ok" if cur <= ceiling else "REGRESSION"
        print(f"{field}: current {cur:.3f} vs baseline {base:.3f} (ceiling {ceiling:.3f}) {status}")
        if cur > ceiling:
            self.failures.append(f"{field}: {cur:.3f} > ceiling {ceiling:.3f} (baseline {base:.3f})")

    def record_only(self, field):
        if field not in self.current:
            return
        print(f"{field}: {self.current[field]} (record only, not gated)")

    def must_be_true(self, field):
        if field not in self.baseline:
            return
        self.checked += 1
        if not self.current.get(field, False):
            self.failures.append(f"{field}: expected true")
        else:
            print(f"{field}: true ok")


def check_lp(checker):
    for field in LP_SPEEDUP_FIELDS:
        checker.floor(field, SPEEDUP_FLOOR_FACTOR)
    for field in LP_REACH_FIELDS:
        checker.ceiling(field, REACH_CEILING_FACTOR, REACH_ABS_SLACK)
    for field in LP_RECORD_ONLY_FIELDS:
        checker.record_only(field)
    checker.must_be_true("cutting_bitwise_agree")
    checker.must_be_true("insolver_bitwise_agree")


def check_service(checker):
    for field in SERVICE_FLOOR_FIELDS:
        checker.floor(field, SPEEDUP_FLOOR_FACTOR)
    for field in SERVICE_CEILING_FIELDS:
        checker.ceiling(field, LATENCY_CEILING_FACTOR)
    checker.must_be_true("service_warm_cold_agree")


def check_churn(checker):
    # Baseline-relative floor plus the absolute acceptance bound.
    checker.floor("churn_availability", AVAILABILITY_FLOOR_FACTOR)
    cur = float(checker.current.get("churn_availability", 0.0))
    checker.checked += 1
    if cur < CHURN_AVAILABILITY_FLOOR:
        checker.failures.append(
            f"churn_availability: {cur:.4f} < absolute floor {CHURN_AVAILABILITY_FLOOR}")
    else:
        print(f"churn_availability: {cur:.4f} >= absolute floor {CHURN_AVAILABILITY_FLOOR} ok")
    for field in CHURN_RECORD_ONLY_FIELDS:
        checker.record_only(field)
    checker.must_be_true("churn_bitwise_agree")


def check_faults(checker):
    # Baseline-relative floor plus the absolute acceptance bound.
    checker.floor("faults_availability", AVAILABILITY_FLOOR_FACTOR)
    cur = float(checker.current.get("faults_availability", 0.0))
    checker.checked += 1
    if cur < FAULTS_AVAILABILITY_FLOOR:
        checker.failures.append(
            f"faults_availability: {cur:.4f} < absolute floor {FAULTS_AVAILABILITY_FLOOR}")
    else:
        print(f"faults_availability: {cur:.4f} >= absolute floor {FAULTS_AVAILABILITY_FLOOR} ok")
    for field in FAULTS_RECORD_ONLY_FIELDS:
        checker.record_only(field)
    checker.must_be_true("faults_bitwise_agree")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    checker = Checker(current, baseline)
    bench = current.get("bench", baseline.get("bench", "lp_solvers"))
    if bench == "service":
        check_service(checker)
    elif bench == "churn":
        check_churn(checker)
    elif bench == "faults":
        check_faults(checker)
    else:
        check_lp(checker)

    if checker.checked == 0:
        print("error: no comparable fields found between current and baseline")
        return 2
    if checker.failures:
        print("\nFAIL: large perf regressions detected:")
        for f in checker.failures:
            print(f"  - {f}")
        return 1
    print(f"\nPASS: {checker.checked} field(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
