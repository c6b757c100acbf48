"""Ablation experiments for the design choices called out in DESIGN.md.

Each ablation isolates one mechanism and compares the system with it
on/off (or across its alternatives):

- storage backend: in-memory vs SQLite persistence cost per element
- window type: time- vs count-retention history maintenance cost
- plan cache: repeated-query compilation cost with and without the cache
- pool size: synchronous vs threaded pools for the pipeline
- SQL backend: the scratch engine vs SQLite executing the same window query
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.gsntime.clock import VirtualClock
from repro.query.plan_cache import PlanCache
from repro.simulation.workload import QueryWorkloadGenerator
from repro.sqlengine.executor import Catalog, execute
from repro.storage.memory import MemoryStorage
from repro.storage.sqlite import SQLiteStorage
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.schema import StreamSchema
from repro.datatypes import DataType


@dataclass
class AblationResult:
    name: str
    variants: Dict[str, float]  # variant -> metric (ms, lower is better)

    def table_rows(self) -> List[tuple]:
        return [(self.name, variant, round(value, 4))
                for variant, value in self.variants.items()]


def _payload_schema() -> StreamSchema:
    return StreamSchema.build(
        device_id=DataType.INTEGER, payload=DataType.BINARY,
    )


def _elements(count: int, payload_bytes: int) -> List[StreamElement]:
    payload = bytes(payload_bytes)
    return [
        StreamElement({"device_id": i % 16, "payload": payload},
                      timed=1_000 + i * 10)
        for i in range(count)
    ]


def ablate_storage_backend(elements: int = 2_000,
                           payload_bytes: int = 4_096) -> AblationResult:
    """Append cost per element: memory vs SQLite backend."""
    schema = _payload_schema()
    variants: Dict[str, float] = {}
    for label, backend in (("memory", MemoryStorage()),
                           ("sqlite", SQLiteStorage(":memory:"))):
        table = backend.create("s", schema, RetentionPolicy("count", 500))
        batch = _elements(elements, payload_bytes)
        started = time.perf_counter()
        for element in batch:
            table.append(element)
        elapsed = (time.perf_counter() - started) * 1000.0
        variants[label] = elapsed / elements
        backend.close()
    return AblationResult("storage_backend(ms/append)", variants)


def ablate_window_type(elements: int = 20_000) -> AblationResult:
    """Maintenance cost of an input window's history: time vs count
    retention of similar extent, admitting and reading every element."""
    fields = _payload_schema().field_names
    rows = [element.as_tuple(fields) for element in _elements(elements, 16)]
    variants: Dict[str, float] = {}
    # ~1000 rows either way: a time span of 10 s at 10 ms spacing.
    for label, retention in (("count", RetentionPolicy("count", 1_000)),
                             ("time", RetentionPolicy("time", 10_000))):
        history = RowHistory(fields, retention)
        started = time.perf_counter()
        for row in rows:
            history.append(row)
            relation, __ = history.view(row[-1])
            list(relation.rows)  # what a pool-mode read copies
        variants[label] = (time.perf_counter() - started) * 1000.0 / elements
    return AblationResult("window_type(ms/element)", variants)


def ablate_plan_cache(queries: int = 2_000,
                      distinct_queries: int = 20) -> AblationResult:
    """Compilation cost (parse + plan) with and without the LRU cache.

    Execution cost is identical either way, so the ablation isolates what
    the cache actually changes: repeated compilation of the standing
    queries the repository re-evaluates on every arrival.
    """
    clock = VirtualClock(1_000_000)
    generator = QueryWorkloadGenerator("s", clock.now, seed=3)
    texts = [generator.next_query() for __ in range(distinct_queries)]
    workload = [texts[i % distinct_queries] for i in range(queries)]

    variants: Dict[str, float] = {}
    for label, capacity in (("cache_on", 512), ("cache_off", 0)):
        cache = PlanCache(capacity)
        started = time.perf_counter()
        for sql in workload:
            cache.compile(sql)
        variants[label] = ((time.perf_counter() - started) * 1000.0
                           / queries)
    return AblationResult("plan_cache(ms/compile)", variants)


def ablate_pool_size(elements: int = 300) -> AblationResult:
    """Pipeline throughput: synchronous pool vs threaded pools.

    With the GIL and a CPU-bound pipeline, threads mostly add queueing
    overhead — which is itself a finding worth printing, and why the
    simulator defaults to synchronous pools.
    """
    from repro.vsensor.pool import WorkerPool

    def task() -> None:
        total = 0
        for i in range(2_000):
            total += i * i
        del total

    variants: Dict[str, float] = {}
    for label, (size, synchronous) in (
        ("sync", (1, True)),
        ("threads_1", (1, False)),
        ("threads_4", (4, False)),
    ):
        pool = WorkerPool(size, synchronous=synchronous)
        started = time.perf_counter()
        for __ in range(elements):
            pool.submit(task)
        pool.drain()
        variants[label] = ((time.perf_counter() - started) * 1000.0
                           / elements)
        pool.shutdown()
    return AblationResult("pool_size(ms/task)", variants)


def ablate_sql_backend(rows: int = 2_000) -> AblationResult:
    """The scratch SQL engine vs SQLite on the same window query."""
    schema = _payload_schema()
    sql = ("select device_id, count(*) as n from s "
           "where device_id < 8 group by device_id order by device_id")

    sqlite = SQLiteStorage(":memory:")
    table = sqlite.create("s", schema, RetentionPolicy("all"))
    batch = _elements(rows, 64)
    for element in batch:
        table.append(element)

    relation = table.relation()
    catalog = Catalog({"s": relation})

    variants: Dict[str, float] = {}
    started = time.perf_counter()
    for __ in range(20):
        execute(sql, catalog)
    variants["scratch_engine"] = (time.perf_counter() - started) * 1000.0 / 20

    started = time.perf_counter()
    for __ in range(20):
        sqlite.execute_sql(sql)
    variants["sqlite"] = (time.perf_counter() - started) * 1000.0 / 20
    sqlite.close()
    return AblationResult("sql_backend(ms/query)", variants)


def ablate_transport_latency(
        latencies=(0, 50, 200), duration_ms: int = 5_000) -> AblationResult:
    """Observed element age at a remote consumer vs injected link latency.

    The paper insists that "network and processing delays are inherent
    properties of the observation process which cannot be made
    transparent by abstraction" — so the measured age (arrival time
    minus element timestamp) must track the configured link latency
    1:1, not be hidden by the middleware.
    """
    from repro.container import GSNContainer
    from repro.gsntime.scheduler import EventScheduler
    from repro.network.peer import PeerNetwork
    from repro.simulation.networks import mote_descriptor

    variants: Dict[str, float] = {}
    for latency in latencies:
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        network = PeerNetwork(scheduler=scheduler, latency_ms=latency)
        producer = GSNContainer("prod", network=network, clock=clock,
                                scheduler=scheduler)
        consumer = GSNContainer("cons", network=network, clock=clock,
                                scheduler=scheduler)
        ages: List[int] = []
        try:
            producer.deploy(mote_descriptor("origin", 1, interval_ms=500))
            schema, cancel = consumer.peer.subscribe(
                {"name": "origin"},
                lambda element: ages.append(
                    clock.now() - (element.timed or 0)),
            )
            scheduler.run_for(duration_ms)
            cancel()
        finally:
            consumer.shutdown()
            producer.shutdown()
        variants[f"latency_{latency}ms"] = (
            sum(ages) / len(ages) if ages else float("nan")
        )
    return AblationResult("transport_latency(observed age ms)", variants)


ALL_ABLATIONS = (
    ablate_storage_backend,
    ablate_window_type,
    ablate_plan_cache,
    ablate_pool_size,
    ablate_sql_backend,
    ablate_transport_latency,
)


def run_all() -> List[AblationResult]:
    return [ablation() for ablation in ALL_ABLATIONS]


def main() -> List[AblationResult]:
    from repro.metrics.report import format_table

    results = run_all()
    rows = [row for result in results for row in result.table_rows()]
    print("Ablation results (lower is better)")
    print(format_table(("ablation", "variant", "value"), rows))
    return results
