"""Shared benchmark plumbing.

Figure benchmarks register their regenerated tables here; a terminal
summary hook prints them after the pytest-benchmark timing tables, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
both the timings and the figure data the paper plots.

Micro-benchmarks additionally register machine-readable metrics with
:func:`register_metric`; a session-finish hook merges them into
``BENCH_micro.json`` at the repo root so CI can archive the numbers and
the incremental-vs-legacy speedup is tracked across revisions. A run
filtered with ``-k`` replaces the cells it measured and keeps the rest.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

_REPORTS: List[Tuple[str, str]] = []
_METRICS: Dict[str, Any] = {}


def register_report(title: str, body: str) -> None:
    """Queue a rendered figure/table for the end-of-run summary."""
    _REPORTS.append((title, body))


def register_metric(name: str, payload: Any) -> None:
    """Record one machine-readable measurement for BENCH_micro.json."""
    _METRICS[name] = payload


def merge_metrics(path: str, metrics: Dict[str, Any]) -> None:
    """Write ``metrics`` into the JSON file at ``path``, keeping the
    cells this run did not measure."""
    merged: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            merged = json.load(handle)
    merged.update(metrics)
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_sessionfinish(session, exitstatus) -> None:
    if not _METRICS:
        return
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    merge_metrics(os.path.join(root, "BENCH_micro.json"), _METRICS)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _REPORTS:
        return
    terminalreporter.section("reproduced paper figures")
    for title, body in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(title)
        terminalreporter.write_line("-" * len(title))
        for line in body.splitlines():
            terminalreporter.write_line(line)
