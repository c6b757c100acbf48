"""End-to-end pipeline tracing for the 5-step evaluation pipeline.

A *trace* follows one stream element from wrapper ingest through every
container it touches. The paper's Section 3 pipeline gives the span
vocabulary:

``timestamp``      step 1 — implicit timestamping on arrival (ingest)
``window_select``  step 2 — window selection and unnesting
``source_query``   step 3 — per-source queries producing temporaries
``output_query``   step 4 — the output query over the temporaries
``persist_notify`` step 5 — persist the result and notify consumers
``remote_hop``     Section 4 — container-to-container delivery

The trace id is stamped into :class:`~repro.streams.element.
StreamElement` provenance and travels inside the remote-subscription
payload, so a two-container deployment stitches into one trace visible
at ``/trace`` on both nodes.

Sampling: the decision is made once, at first ingest, with the
per-sensor rate from the descriptor's ``trace-sampling`` attribute.
Downstream containers respect an upstream decision — an element that
arrives carrying a trace id is always traced, one without never is.
"""

from __future__ import annotations

import threading
from collections import deque
from random import Random
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from repro.concurrency import new_lock
from repro.metrics.registry import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

#: The five pipeline steps, in evaluation order (plus the remote hop).
PIPELINE_STEPS = ("timestamp", "window_select", "source_query",
                  "output_query", "persist_notify")
REMOTE_HOP_STEP = "remote_hop"

#: Per-thread id generators. A PRNG draw is ~5x cheaper than
#: ``uuid.uuid4()`` and this sits on the sampled ingest hot path; one
#: generator per thread means wrapper threads never serialize on a
#: process-wide lock just to mint an id (each ``Random()`` seeds itself
#: from the OS, so two threads never draw the same stream). 64 random
#: bits are plenty for correlating spans inside one deployment's
#: bounded ring buffers.
_id_local = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    rng = getattr(_id_local, "rng", None)
    if rng is None:
        rng = _id_local.rng = Random()
    return f"{rng.getrandbits(64):016x}"


class Span:
    """One timed operation inside a trace; spans nest into a tree."""

    __slots__ = ("trace_id", "name", "started_at", "duration_ms",
                 "attributes", "children", "_t0")

    def __init__(self, trace_id: str, name: str, started_at: int,
                 **attributes: Any) -> None:
        self.trace_id = trace_id
        self.name = name
        self.started_at = started_at  # container clock, epoch ms
        self.duration_ms: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes
        self.children: List["Span"] = []
        self._t0 = perf_counter()

    # A span is single-owner: only the thread carrying the element
    # through the pipeline touches it until it is finished and handed to
    # the (locked) TraceBuffer, so no per-span lock is warranted.
    def child(self, name: str, **attributes: Any) -> "Span":
        """Open a nested span; the caller must :meth:`finish` it."""
        span = Span(self.trace_id, name, self.started_at, **attributes)
        self.children.append(span)  # gsn-lint: disable=GSN804
        return span

    def finish(self) -> "Span":
        """Close the span, fixing its wall-clock duration."""
        if self.duration_ms is None:
            self.duration_ms = (perf_counter() - self._t0) * 1_000.0  # gsn-lint: disable=GSN803
        return self

    def close(self, duration_ms: float) -> "Span":
        """Close with an externally measured duration (remote hops use
        the shared container clock, not this process's perf counter)."""
        self.duration_ms = duration_ms  # gsn-lint: disable=GSN801
        return self

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_ms": self.duration_ms,
        }
        if self.attributes:
            doc["attributes"] = dict(self.attributes)
        if self.children:
            doc["children"] = [child.to_dict() for child in self.children]
        return doc


class TraceBuffer:
    """Bounded ring buffer of finished span trees (the ``/trace`` feed)."""

    def __init__(self, capacity: int = 256) -> None:
        self._spans: Deque[Span] = deque(maxlen=capacity)  # guarded-by: TraceBuffer._lock
        self._added = 0  # guarded-by: TraceBuffer._lock
        self._lock = new_lock("TraceBuffer._lock")
        self.capacity = capacity

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self._added += 1

    def recent(self, limit: Optional[int] = None) -> List[Span]:
        """Most recent span trees, newest first."""
        with self._lock:
            spans = list(self._spans)
        spans.reverse()
        return spans[:limit] if limit is not None else spans

    def find(self, trace_id: str) -> List[Span]:
        """All buffered span trees belonging to one trace, oldest first."""
        with self._lock:
            spans = list(self._spans)
        return [span for span in spans if span.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def status(self) -> dict:
        with self._lock:
            return {
                "buffered": len(self._spans),
                "capacity": self.capacity,
                "recorded": self._added,
            }


class PipelineTracer:
    """Per-sensor tracer: sampling decision, span trees, step histograms.

    With ``sampling == 0.0`` and no inbound trace ids, :meth:`begin`
    returns ``None`` after two attribute reads — the pipeline then runs
    exactly as before (the ≈0% overhead path). A sensor constructed
    outside a container (no sink/registry) gets a disabled tracer.
    """

    def __init__(self, sensor: str, node: str = "",
                 sampling: float = 1.0,
                 sink: Optional[TraceBuffer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 seed: Optional[int] = None) -> None:
        self.sensor = sensor
        self.node = node
        self.sampling = max(0.0, min(1.0, float(sampling)))
        self.sink = sink
        self.enabled = sink is not None or registry is not None
        self._random = Random(seed)
        self._step_latency = None
        self._trigger_latency = None
        self._traces_total = None
        if registry is not None:
            family = registry.histogram(
                "gsn_pipeline_step_latency_ms",
                "Latency of each pipeline step, per sensor.",
                labelnames=("sensor", "step"),
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
            )
            self._step_latency = {
                step: family.labels(sensor=sensor, step=step)
                for step in PIPELINE_STEPS
            }
            self._trigger_latency = registry.histogram(
                "gsn_pipeline_trigger_latency_ms",
                "End-to-end latency of one trigger (steps 2-5).",
                labelnames=("sensor",),
                buckets=DEFAULT_LATENCY_BUCKETS_MS,
            ).labels(sensor=sensor)
            self._traces_total = registry.counter(
                "gsn_traces_recorded_total",
                "Span trees recorded into the trace ring buffer.",
                labelnames=("sensor",),
            ).labels(sensor=sensor)

    # -- sampling -----------------------------------------------------------

    def sample(self) -> bool:
        """Fresh-element sampling decision (made once, at first ingest)."""
        if not self.enabled or self.sampling <= 0.0:
            return False
        return self.sampling >= 1.0 or self._random.random() < self.sampling

    # -- trigger spans ------------------------------------------------------

    def begin(self, trace_id: Optional[str], started_at: int,
              **attributes: Any) -> Optional[Span]:
        """Root span for one trigger, or ``None`` when not traced.

        ``trace_id`` is the id carried by the triggering element; a
        trigger whose element was not sampled is not traced.
        """
        if not self.enabled or trace_id is None:
            return None
        return Span(trace_id, "trigger", started_at,
                    sensor=self.sensor, node=self.node, **attributes)

    def finish(self, root: Optional[Span]) -> None:
        """Close the root, feed the histograms, push to the ring buffer."""
        if root is None:
            return
        root.finish()
        if self._step_latency is not None:
            for child in root.children:
                if child.name == PIPELINE_STEPS[0]:
                    continue  # adopted ingest span: record_ingest fed it
                instrument = self._step_latency.get(child.name)
                if instrument is not None and child.duration_ms is not None:
                    instrument.observe(child.duration_ms)
            assert self._trigger_latency is not None
            self._trigger_latency.observe(root.duration_ms or 0.0)
        if self.sink is not None:
            self.sink.add(root)
            if self._traces_total is not None:
                self._traces_total.inc()

    # -- ingest spans -------------------------------------------------------

    def ingest_span(self, trace_id: str, started_at: int,
                    **attributes: Any) -> Span:
        """Open a step-1 (timestamp/ingest) span for a sampled element."""
        return Span(trace_id, "timestamp", started_at,
                    sensor=self.sensor, node=self.node, **attributes)

    def record_ingest(self, span: Span) -> None:
        """Finish an ingest span and feed the step-1 histogram."""
        span.finish()
        if self._step_latency is not None:
            instrument = self._step_latency.get("timestamp")
            if instrument is not None and span.duration_ms is not None:
                instrument.observe(span.duration_ms)


DISABLED_TRACER = PipelineTracer("", sampling=0.0)
