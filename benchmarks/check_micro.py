#!/usr/bin/env python3
"""Gate BENCH_micro.json against the budgets and the recorded baseline.

Run after ``pytest benchmarks/test_micro.py`` has written
``BENCH_micro.json`` at the repo root. Fails (exit 1) when:

- a delta-maintained workload's speedup falls under its floor (every
  doc carrying a ``speedup`` key is gated; the default floor is 5x,
  group-by and time-window workloads claim 10x),
- a workload regresses more than 20% against the speedup recorded in
  ``benchmarks/baseline.json`` (ratios, so the check is
  machine-independent),
- a generated-stage cell (the fused conjunction filter) falls under
  its compiled-vs-interpreter floor in ``baseline.json``,
- the incremental fast path covers fewer workloads than the baseline
  records, or gsn-plan's static coverage over the shipped examples
  fleet drops below the recorded percentage,
- the traced span protocol exceeds its 10%-of-a-trigger budget (the
  end-to-end sampled-vs-unsampled difference also has a loose 25%
  noise bound),
- continuous profiling at the default rate costs more than its 2%
  share of profiled wall time (measured or projected),
- the race witness's per-trigger path (guard checks plus tracked lock
  cycles, measured in isolation) exceeds 2% of the reference pipeline
  trigger, or its end-to-end armed-vs-bare difference leaves the 10%
  noise bound,
- batched ingestion (``BENCH_ingest.json``, merged when present) loses
  its 5x throughput floor over per-tuple delivery, a batch-admission
  cell costs more microseconds per tuple than its ceiling in
  ``baseline.json``, or the event-loop lag witness costs more than 2%
  of loop wall time,
- a stream-table catalog read (``catalog_history64_sqlite``) costs more
  microseconds than its ceiling in ``baseline.json``,
- a design count of the source tree (``design_metrics.py``: lines per
  package, ``exec`` sites, lint suppressions, ``GSN_*`` names,
  ``incremental`` parameters) exceeds the one recorded in
  ``BENCH_design.json``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

from design_metrics import DESIGN_PATH, counts, measure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REGRESSION_FACTOR = 0.8  # >20% slowdown vs the recorded baseline fails
#: Absolute microsecond ceilings in ``baseline.json``: (section, the
#: metric field its cells carry, what one measurement costs).
CEILINGS = (
    ("admission_ceilings_us_per_tuple", "admission_us_per_tuple",
     "per admitted tuple"),
    ("catalog_ceilings_us", "catalog_us", "per catalog read"),
)


def check(metrics: dict, baseline: dict) -> List[str]:
    failures: List[str] = []

    for name, doc in sorted(metrics.items()):
        if not isinstance(doc, dict):
            continue
        if "speedup" in doc:
            floor = doc.get("floor", 5)
            print(f"{name}: {doc['speedup']:.1f}x "
                  f"({doc['legacy_ms']:.3f} ms -> "
                  f"{doc['incremental_ms']:.3f} ms, floor {floor}x)")
            if doc["speedup"] < floor:
                failures.append(f"{name} below its {floor}x floor "
                                f"({doc['speedup']:.1f}x)")
        if "compiled_speedup" in doc:
            print(f"{name}: compiled {doc['compiled_speedup']:.1f}x "
                  f"({doc['interpreted_ms']:.3f} ms -> "
                  f"{doc['compiled_ms']:.3f} ms)")
        if "overhead_pct" in doc:
            print(f"{name}: traced path "
                  f"{doc['traced_pct_of_trigger']:.1f}% of a trigger, "
                  f"+{doc['overhead_pct']:.1f}% end to end, "
                  f"{doc['untraced_path_ns']:.0f} ns when off")
            if doc["traced_pct_of_trigger"] > 10:
                failures.append(f"{name} above the 10% tracing budget")
            if doc["overhead_pct"] > 25:
                failures.append(
                    f"{name}: end-to-end tracing overhead is beyond "
                    "measurement noise")
        if "profiler_overhead_pct" in doc:
            budget = doc.get("budget_pct", 2.0)
            print(f"{name}: {doc['profiler_overhead_pct']:.2f}% of wall "
                  f"at {doc['hz']:.0f} Hz "
                  f"(projected {doc['projected_pct']:.2f}%, "
                  f"budget {budget}%)")
            if doc["profiler_overhead_pct"] > budget:
                failures.append(
                    f"{name}: continuous profiling costs "
                    f"{doc['profiler_overhead_pct']:.2f}% of wall time "
                    f"(budget {budget}%)")
            if doc["projected_pct"] > budget:
                failures.append(
                    f"{name}: projected sweep cost "
                    f"{doc['projected_pct']:.2f}% is over the "
                    f"{budget}% budget")
        if "witness_pct_of_trigger" in doc:
            budget = doc.get("budget_pct", 2.0)
            print(f"{name}: witness path "
                  f"{doc['witness_pct_of_trigger']:.2f}% of a trigger "
                  f"({doc['witness_path_ns']:.0f} ns, "
                  f"{doc['checks_per_trigger']:.0f} checks + "
                  f"{doc['lock_cycles_per_trigger']:.0f} tracked cycles), "
                  f"+{doc['witness_overhead_pct']:.1f}% end to end, "
                  f"budget {budget}%")
            if doc["witness_pct_of_trigger"] > budget:
                failures.append(
                    f"{name}: race witness path costs "
                    f"{doc['witness_pct_of_trigger']:.2f}% of a trigger "
                    f"(budget {budget}%)")
            if doc["witness_overhead_pct"] > 10:
                failures.append(
                    f"{name}: end-to-end race-witness overhead is "
                    "beyond measurement noise")
        if "ingest_speedup" in doc:
            floor = doc.get("floor", 5)
            print(f"{name}: batched ingest {doc['ingest_speedup']:.1f}x "
                  f"({doc['per_tuple_tuples_per_s']:.0f} -> "
                  f"{doc['batched_tuples_per_s']:.0f} tuples/s, "
                  f"floor {floor}x)")
            if doc["ingest_speedup"] < floor:
                failures.append(
                    f"{name} below its {floor}x batching floor "
                    f"({doc['ingest_speedup']:.1f}x)")
        if "loop_witness_overhead_pct" in doc:
            budget = doc.get("budget_pct", 2.0)
            print(f"{name}: loop-lag witness "
                  f"{doc['loop_witness_overhead_pct']:.2f}% of loop wall "
                  f"(budget {budget}%)")
            if doc["loop_witness_overhead_pct"] > budget:
                failures.append(
                    f"{name}: loop-lag witness costs "
                    f"{doc['loop_witness_overhead_pct']:.2f}% of loop "
                    f"wall time (budget {budget}%)")

    for name, recorded in sorted(baseline.get("speedups", {}).items()):
        doc = metrics.get(name)
        if doc is None or "speedup" not in doc:
            failures.append(f"{name}: baseline workload missing from "
                            "BENCH_micro.json")
            continue
        required = recorded * REGRESSION_FACTOR
        if doc["speedup"] < required:
            failures.append(
                f"{name} regressed: {doc['speedup']:.1f}x < "
                f"{required:.1f}x (80% of the recorded {recorded}x)")

    for name, floor in sorted(baseline.get("compiled_floors", {}).items()):
        speedup = metrics.get(name, {}).get("compiled_speedup")
        if speedup is None:
            failures.append(f"{name}: compiled cell missing from "
                            "BENCH_micro.json")
        elif speedup < floor:
            failures.append(f"{name} below its {floor}x compiled floor "
                            f"({speedup:.1f}x over the interpreter)")

    for section, field, what in CEILINGS:
        for name, ceiling in sorted(baseline.get(section, {}).items()):
            cost = metrics.get(name, {}).get(field)
            if cost is None:
                failures.append(f"{name}: {what} cell missing")
                continue
            print(f"{name}: {cost:.2f} us {what} (ceiling {ceiling} us)")
            if cost > ceiling:
                failures.append(f"{name}: {cost:.2f} us {what} "
                                f"(ceiling {ceiling} us)")

    recorded_pct = baseline["fast_path_static_coverage"]["examples_percent"]
    coverage = metrics.get("fast_path_static_coverage", {})
    current_pct = coverage.get("examples_percent", 0.0)
    print(f"examples static coverage: {current_pct}% "
          f"(baseline {recorded_pct}%)")
    if current_pct < recorded_pct:
        failures.append(
            f"static fast-path coverage regressed: {current_pct}% < "
            f"recorded {recorded_pct}%")

    recorded_workloads = set(baseline.get("fast_path_workloads", ()))
    current_workloads = set(
        metrics.get("matrix_fast_path_workloads", {}).get("workloads", ()))
    missing = sorted(recorded_workloads - current_workloads)
    if missing:
        failures.append(
            "fast-path coverage regressed; workloads no longer "
            f"delta-maintained: {', '.join(missing)}")

    return failures


def check_design(current: dict, recorded: dict) -> List[str]:
    """A count may only fall, or rise together with a re-record."""
    limits = dict(counts(recorded))
    failures: List[str] = []
    for name, count in counts(current):
        limit = limits.get(name, 0)
        if count != limit:
            print(f"design {name}: {count} (recorded {limit})")
        if count > limit:
            failures.append(
                f"design count {name} rose to {count} (recorded {limit}); "
                "re-record with benchmarks/design_metrics.py and say why "
                "in CHANGES.md")
    return failures


def main() -> int:
    with open(os.path.join(ROOT, "BENCH_micro.json")) as handle:
        metrics = json.load(handle)
    ingest_path = os.path.join(ROOT, "BENCH_ingest.json")
    if os.path.exists(ingest_path):
        with open(ingest_path) as handle:
            metrics.update(json.load(handle))
    with open(os.path.join(ROOT, "benchmarks", "baseline.json")) as handle:
        baseline = json.load(handle)
    failures = check(metrics, baseline)
    with open(DESIGN_PATH) as handle:
        failures += check_design(measure(), json.load(handle))
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
