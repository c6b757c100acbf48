"""Latency and throughput collectors.

The experiments measure *internal processing time* of a GSN node (paper,
Figure 3) and *query processing time* (Figure 4); these collectors are the
instrumentation points. They measure wall time via ``perf_counter`` and
are deliberately tiny so their own overhead stays negligible.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional

from repro.concurrency import new_lock


#: Samples a recorder keeps for its percentiles (the most recent ones).
SAMPLE_LIMIT = 4096


class LatencyRecorder:
    """Collects durations in milliseconds and reports summary statistics.

    ``count`` / mean / min / max are exact over every recorded duration;
    percentiles read a bounded ring of the last :data:`SAMPLE_LIMIT`
    samples, so a long-lived recorder's memory and ``summary()`` cost
    stay constant.

    Thread-safe: the in-flight start timestamp is thread-local (pipeline
    pools time concurrent runs independently) and aggregation is locked.
    """

    def __init__(self, keep_samples: bool = True) -> None:
        self.keep_samples = keep_samples
        self.samples: List[float] = []  # guarded-by: LatencyRecorder._lock
        self.count = 0  # guarded-by: LatencyRecorder._lock
        self.total_ms = 0.0  # guarded-by: LatencyRecorder._lock
        self.max_ms = 0.0  # guarded-by: LatencyRecorder._lock
        self.min_ms = math.inf  # guarded-by: LatencyRecorder._lock
        self._local = threading.local()
        self._lock = new_lock("LatencyRecorder._lock")

    def start(self) -> None:
        self._local.started = time.perf_counter()

    def stop(self) -> float:
        started: Optional[float] = getattr(self._local, "started", None)
        if started is None:
            raise RuntimeError("stop() without start()")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._local.started = None
        self.record(elapsed_ms)
        return elapsed_ms

    def record(self, elapsed_ms: float) -> None:
        with self._lock:
            if self.keep_samples:
                if len(self.samples) < SAMPLE_LIMIT:
                    self.samples.append(elapsed_ms)
                else:  # overwrite the oldest
                    self.samples[self.count % SAMPLE_LIMIT] = elapsed_ms
            self.count += 1
            self.total_ms += elapsed_ms
            if elapsed_ms > self.max_ms:
                self.max_ms = elapsed_ms
            if elapsed_ms < self.min_ms:
                self.min_ms = elapsed_ms

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained samples."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        with self._lock:
            ordered = sorted(self.samples)
        return _percentile(ordered, q)

    def reset(self) -> None:
        with self._lock:
            self.samples.clear()
            self.count = 0
            self.total_ms = 0.0
            self.max_ms = 0.0
            self.min_ms = math.inf

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total_ms = self.count, self.total_ms
            min_ms, max_ms = self.min_ms, self.max_ms
            ordered = sorted(self.samples)
        return {
            "count": count,
            "mean_ms": round(total_ms / count if count else 0.0, 4),
            "min_ms": 0.0 if count == 0 else round(min_ms, 4),
            "max_ms": round(max_ms, 4),
            "p50_ms": round(_percentile(ordered, 50), 4),
            "p95_ms": round(_percentile(ordered, 95), 4),
        }


def _percentile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(int(len(ordered) * q / 100.0), len(ordered) - 1)]


class FastPathCounters:
    """Per-sensor counters for the incremental pipeline's fast paths.

    Every counter answers "did the optimization actually engage?" —
    exposed through ``VirtualSensor.status()`` and the dashboard so a
    deployment can verify it is running incrementally, and so the
    equivalence tests can assert which path produced a result.
    """

    def __init__(self) -> None:
        self.view_hits = 0  # guarded-by: FastPathCounters._lock
        self.view_misses = 0  # guarded-by: FastPathCounters._lock
        self.cache_hits = 0  # guarded-by: FastPathCounters._lock
        self.cache_misses = 0  # guarded-by: FastPathCounters._lock
        self.identity_hits = 0  # guarded-by: FastPathCounters._lock
        self.aggregate_hits = 0  # guarded-by: FastPathCounters._lock
        self.aggregate_fallbacks = 0  # guarded-by: FastPathCounters._lock
        self.legacy_queries = 0  # guarded-by: FastPathCounters._lock
        self.join_hits = 0  # guarded-by: FastPathCounters._lock
        self.join_fallbacks = 0  # guarded-by: FastPathCounters._lock
        self.compiled_queries = 0  # guarded-by: FastPathCounters._lock
        self.interpreted_queries = 0  # guarded-by: FastPathCounters._lock
        self.poisoned = 0  # guarded-by: FastPathCounters._lock
        self._lock = new_lock("FastPathCounters._lock")

    def record_view(self, from_view: bool) -> None:
        """Step 2 served by the materialized view vs a full rebuild."""
        with self._lock:
            if from_view:
                self.view_hits += 1
            else:
                self.view_misses += 1

    def record_cache(self, hit: bool) -> None:
        """Per-source temporary relation reused (source unchanged)."""
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def record_identity(self) -> None:
        """``select * from wrapper`` answered by the view directly."""
        with self._lock:
            self.identity_hits += 1

    def record_aggregate(self) -> None:
        """Aggregate answered from running accumulators."""
        with self._lock:
            self.aggregate_hits += 1

    def record_aggregate_fallback(self) -> None:
        """A delta state poisoned itself or deferred; ran per trigger."""
        with self._lock:
            self.aggregate_fallbacks += 1

    def record_legacy(self) -> None:
        """Per-source query executed by the generic SQL engine."""
        with self._lock:
            self.legacy_queries += 1

    def record_join(self) -> None:
        """Stream query answered by the delta-maintained join state."""
        with self._lock:
            self.join_hits += 1

    def record_join_fallback(self) -> None:
        """A join state poisoned itself; stream query rerouted."""
        with self._lock:
            self.join_fallbacks += 1

    def record_compiled(self, compiled: bool) -> None:
        """A query ran through the compiled physical pipeline (vs the
        tree-walking interpreter, for shapes the compiler rejects)."""
        with self._lock:
            if compiled:
                self.compiled_queries += 1
            else:
                self.interpreted_queries += 1

    def record_poisoned(self) -> None:
        """An accumulator hit a delta error and pinned itself to the
        legacy path (``fastpath_poisoned_total`` in /metrics)."""
        with self._lock:
            self.poisoned += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "view_hits": self.view_hits,
                "view_misses": self.view_misses,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "identity_hits": self.identity_hits,
                "aggregate_hits": self.aggregate_hits,
                "aggregate_fallbacks": self.aggregate_fallbacks,
                "legacy_queries": self.legacy_queries,
                "join_hits": self.join_hits,
                "join_fallbacks": self.join_fallbacks,
                "compiled_queries": self.compiled_queries,
                "interpreted_queries": self.interpreted_queries,
                "poisoned": self.poisoned,
            }


class ThroughputCounter:
    """Counts events against a (virtual or wall) clock timespan."""

    def __init__(self) -> None:
        self.events = 0
        self.first_at: Optional[int] = None
        self.last_at: Optional[int] = None

    def record(self, at_millis: int) -> None:
        self.events += 1
        if self.first_at is None:
            self.first_at = at_millis
        self.last_at = at_millis

    @property
    def per_second(self) -> float:
        """Observed event rate over the recorded timespan.

        Fewer than two events carry no rate information and yield 0.0.
        A single burst (all events on the same millisecond) clamps the
        span to 1 ms instead of reporting 0.0 — the measurement is
        coarse, but "at least N-1 events per millisecond" is the honest
        lower bound, not zero.
        """
        if self.events < 2 or self.first_at is None or self.last_at is None:
            return 0.0
        span_ms = max(self.last_at - self.first_at, 1)
        return (self.events - 1) / (span_ms / 1000.0)
