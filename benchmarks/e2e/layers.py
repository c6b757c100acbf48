"""Per-layer tracing from outside: timing shims on public entry points.

``install`` replaces the public functions listed in README.md ("Layer
boundaries") with shims that record one span per call — name, start,
end, parent and the ``seq`` of the triggering batch — into per-thread
in-memory lists.  Nothing under ``src/`` is edited; the shims live only
in the traced child process.  A span is named ``<layer>.<boundary>``
where the layer is the ``repro`` module that owns the function.

The second half of the module turns a span list into the layer budget:
a layer's self time is its spans' durations minus the part their child
spans cover, so self times over a trigger tree sum to the root's wall
time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [name, start_ns, end_ns, parent_index (-1 = root), seq].
Span = List[Any]

NAME, START, END, PARENT, SEQ = range(5)

#: Spans that open a trigger tree (the harness span wraps pacer calls).
TRIGGER_ROOTS = ("harness.call", "virtual_sensor.trigger")


class Tracer:
    """Collects spans and counts from the shims of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[List[Span], Dict[str, int]]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[Span] = []
            counts: Dict[str, int] = {}
            with self._lock:
                self._threads.append((spans, counts))
            state = self._local.state = (spans, [], counts)
        return state

    def wrap(self, name: str, fn: Callable,
             seq_of: Optional[Callable[..., Optional[int]]] = None
             ) -> Callable:
        """``fn`` behind a shim that records one span per call while the
        tracer is enabled. A root span takes its ``seq`` from
        ``seq_of(*args, **kwargs)``; nested spans inherit their root's."""
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            spans, stack, __ = self._state()
            if stack:
                parent = stack[-1]
                seq = spans[parent][SEQ]
            else:
                parent = -1
                seq = seq_of(*args, **kwargs) if seq_of is not None else None
            record: Span = [name, clock(), 0, parent, seq]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
        return shim

    def count(self, name: str, amount: int) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + amount

    def collect(self) -> Tuple[List[Span], Dict[str, int]]:
        """All spans (parent indexes made global) and counts."""
        merged: List[Span] = []
        totals: Dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for spans, counts in threads:
            offset = len(merged)
            for span in spans:
                parent = span[PARENT]
                # A span still open (a server thread mid-call) keeps its
                # slot, so indexes stay valid, with no duration.
                merged.append([span[NAME], span[START],
                               span[END] or span[START],
                               parent + offset if parent >= 0 else -1,
                               span[SEQ]])
            for name, amount in counts.items():
                totals[name] = totals.get(name, 0) + amount
        return merged, totals


def _batch_seq(sensor: Any, stream_name: str, alias: str,
               values: Sequence[Any]) -> Optional[int]:
    last = values[-1] if values else None
    return last.get("seq") if isinstance(last, dict) else None


def _emit_seq(wrapper: Any, values: Any, timed: Any = None) -> Optional[int]:
    return values.get("seq")


def install(tracer: Tracer) -> None:
    """Put the shims in place. Call before the container is built: the
    query processor captures ``StorageManager.catalog`` as a bound
    method at construction."""
    import repro.container as container_module
    import repro.vsensor.virtual_sensor as sensor_module
    from repro.notifications.manager import NotificationManager
    from repro.query.processor import QueryProcessor
    from repro.query.repository import QueryRepository
    from repro.sqlengine.incremental import (
        GroupedAggregateState, IncrementalAggregateState,
        IncrementalJoinState,
    )
    from repro.sqlengine.rewriter import WRAPPER_TABLE
    from repro.storage.manager import StorageManager
    from repro.storage.memory import MemoryStreamTable
    from repro.storage.sqlite import SQLiteStreamTable
    from repro.vsensor.input_manager import SourceRuntime
    from repro.vsensor.manager import VirtualSensorManager
    from repro.vsensor.virtual_sensor import VirtualSensor
    from repro.wrappers.base import PeriodicWrapper, Wrapper

    def patch(owner: Any, attr: str, name: str,
              seq_of: Optional[Callable] = None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), seq_of))

    # Ingress. On the wrapper path the boundary between the wrapper and
    # the sensor is the listener the ISM registers on the wrapper.
    patch(VirtualSensor, "ingest_batch", "virtual_sensor.trigger", _batch_seq)
    patch(PeriodicWrapper, "tick", "wrappers.tick")
    patch(Wrapper, "emit", "wrappers.emit", _emit_seq)
    add_listener = Wrapper.add_listener

    def add_traced_listener(self: Any, listener: Callable) -> None:
        add_listener(self, tracer.wrap("virtual_sensor.trigger", listener))
    Wrapper.add_listener = add_traced_listener  # type: ignore[method-assign]

    patch(SourceRuntime, "receive", "input_manager.receive")
    patch(SourceRuntime, "snapshot_state", "streams.snapshot")

    # Per-source queries are answered by a delta state's snapshot() or by
    # run_plan over the window relation; the output query by run_plan
    # over the temporaries (or the join state's snapshot()).
    for state in (IncrementalAggregateState, GroupedAggregateState):
        patch(state, "snapshot", "sqlengine.source_query")
    patch(IncrementalJoinState, "snapshot", "sqlengine.output_query")
    run_plan = sensor_module.run_plan
    source_run = tracer.wrap("sqlengine.source_query", run_plan)
    output_run = tracer.wrap("sqlengine.output_query", run_plan)

    def sensor_run_plan(plan: Any, catalog: Any) -> Any:
        if WRAPPER_TABLE in catalog:
            return source_run(plan, catalog)
        return output_run(plan, catalog)
    sensor_module.run_plan = sensor_run_plan

    patch(SQLiteStreamTable, "append", "storage.append")
    patch(MemoryStreamTable, "append", "storage.append")
    traced_catalog = tracer.wrap("storage.catalog", StorageManager.catalog)

    def catalog(self: Any, now: Optional[int] = None) -> Any:
        result = traced_catalog(self, now)
        if tracer.enabled:
            tracer.count("storage.catalog_rows",
                         sum(len(result.get(table))
                             for table in result.table_names()))
        return result
    StorageManager.catalog = catalog  # type: ignore[method-assign]

    patch(QueryRepository, "data_arrived", "repository.data_arrived")
    patch(QueryProcessor, "execute", "processor.execute")
    patch(NotificationManager, "deliver", "notifications.deliver")

    # Deployment.
    patch(container_module, "descriptor_from_xml", "descriptors.parse")
    patch(VirtualSensorManager, "deploy", "vsensor_manager.deploy")


# -- analysis ---------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus what its child spans cover."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return [max(0, value) for value in result]


def root_of(spans: Sequence[Span]) -> List[int]:
    """Per span: the index of the root of its tree (parents precede
    their children in the list)."""
    roots: List[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(index if parent < 0 else roots[parent])
    return roots


def budget(spans: Sequence[Span], start_ns: int = 0) -> Dict[str, Any]:
    """The layer budget over the trigger trees that start at or after
    ``start_ns``: self time per layer and per span name, the trees'
    total wall time and their count."""
    own = self_times(spans)
    roots = root_of(spans)
    layers: Dict[str, int] = {}
    names: Dict[str, Dict[str, int]] = {}
    total = 0
    trees = 0
    for index, span in enumerate(spans):
        root = spans[roots[index]]
        if root[NAME] not in TRIGGER_ROOTS or root[START] < start_ns:
            continue
        if roots[index] == index:
            total += span[END] - span[START]
            trees += 1
        layer = layer_of(span[NAME])
        layers[layer] = layers.get(layer, 0) + own[index]
        entry = names.setdefault(span[NAME],
                                 {"calls": 0, "self_ns": 0, "total_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += own[index]
        entry["total_ns"] += span[END] - span[START]
    return {"layers": layers, "names": names, "total_ns": total,
            "trees": trees}
