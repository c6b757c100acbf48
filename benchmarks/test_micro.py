"""Micro-benchmarks of the hot paths the experiments stress.

These timings give the per-operation baselines behind the figure-level
results: SQL execution (scan/filter/aggregate/join), the full virtual-
sensor pipeline per element, and the end-to-end throughput claim ("GSN
can tolerate high rates").
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager, nullcontext
from time import perf_counter

import pytest

from repro.container import GSNContainer
from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StreamSourceSpec,
    VirtualSensorDescriptor,
)
from repro.gsntime.clock import VirtualClock
from repro.metrics.tracing import PipelineTracer, TraceBuffer
from repro.simulation.workload import payload_descriptor
from repro.sqlengine.executor import Catalog, execute, execute_plan
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import run_plan
from repro.sqlengine.planner import plan_select
from repro.sqlengine.relation import Relation
from repro.storage.base import RetentionPolicy
from repro.storage.manager import StorageManager
from repro.storage.memory import MemoryStorage
from repro.streams.element import StreamElement
from repro.streams.schema import StreamSchema
from repro.vsensor import virtual_sensor as sensor_module
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.scripted import ScriptedWrapper

from benchmarks.conftest import register_metric


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    rows = [
        {"id": i, "grp": i % 10, "value": (i * 37) % 1000,
         "timed": 1_000_000 + i}
        for i in range(5_000)
    ]
    left = Relation.from_dicts(("id", "grp", "value", "timed"), rows)
    right = Relation.from_dicts(
        ("grp", "label"),
        [{"grp": g, "label": f"group-{g}"} for g in range(10)],
    )
    return Catalog({"t": left, "g": right})


def test_sql_filter_scan(benchmark, catalog) -> None:
    result = benchmark(
        execute, "select id, value from t where value > 500", catalog
    )
    assert len(result) > 0


def test_sql_aggregate(benchmark, catalog) -> None:
    result = benchmark(
        execute,
        "select grp, count(*) as n, avg(value) as m from t group by grp",
        catalog,
    )
    assert len(result) == 10


def test_sql_hash_join(benchmark, catalog) -> None:
    plan = plan_select(parse_select(
        "select t.id, g.label from t join g on t.grp = g.grp "
        "where t.value < 100"
    ))
    result = benchmark(execute_plan, plan, catalog)
    assert len(result) > 0


def test_sql_order_limit(benchmark, catalog) -> None:
    result = benchmark(
        execute, "select * from t order by value desc limit 50", catalog
    )
    assert len(result) == 50


def test_plan_compile(benchmark) -> None:
    sql = ("select grp, count(*) as n from t "
           "where value between 10 and 900 and grp in (1, 2, 3) "
           "group by grp having count(*) > 5 order by n desc")
    plan = benchmark(lambda: plan_select(parse_select(sql)))
    assert plan is not None


def test_pipeline_element_cost(benchmark) -> None:
    """Cost of one full pipeline pass (steps 1-5) on a running sensor."""
    with GSNContainer("micro") as node:
        node.deploy(payload_descriptor("s", 1, 100, 1_024, window="2s"))
        node.run_for(2_000)  # warm the window
        sensor = node.sensor("s")
        wrapper = sensor.wrappers["src"]

        def one_element():
            wrapper.tick()

        benchmark(one_element)
        assert sensor.elements_produced > 0


# -- incremental hot path ----------------------------------------------------

_AGG_QUERY = ("select count(*) as n, sum(v) as s, avg(v) as a, "
              "min(v) as lo, max(v) as hi from wrapper")
_AGG_FIELDS = dict(n=DataType.INTEGER, s=DataType.INTEGER,
                   a=DataType.DOUBLE, lo=DataType.INTEGER,
                   hi=DataType.INTEGER)


def _sensor_descriptor(source_specs, stream_query, output_fields=None):
    return VirtualSensorDescriptor(
        name="bench",
        output_structure=StreamSchema.build(**(output_fields
                                               or _AGG_FIELDS)),
        input_streams=(InputStreamSpec(
            name="in",
            sources=tuple(
                StreamSourceSpec(alias=alias,
                                 address=AddressSpec("scripted"),
                                 query=query, storage_size=window)
                for alias, window, query in source_specs
            ),
            query=stream_query,
        ),),
    )


class _WholeWindowSensor(VirtualSensor):
    """A sensor that attaches no delta state: every query folds the
    whole window on each trigger."""

    def _attach_fast_path(self, stream_name, source):
        pass

    def _attach_join(self, stream_name, runtime):
        pass


def _build_sensor(descriptor, aliases, delta, producer=None, schema=None):
    clock = VirtualClock(1_000_000)
    wrappers = {}
    for alias in aliases:
        wrapper = ScriptedWrapper()
        wrapper.script(producer or (lambda now: {"v": (now * 37) % 1_000}),
                       schema or StreamSchema.build(v=DataType.INTEGER))
        wrapper.attach(clock)
        wrapper.configure({})
        wrappers[alias] = wrapper
    table = MemoryStorage().create("out", descriptor.output_structure,
                                   RetentionPolicy("count", 1_000))
    sensor_class = VirtualSensor if delta else _WholeWindowSensor
    sensor = sensor_class(descriptor, clock, wrappers, output_table=table)
    sensor.start()
    return sensor, wrappers, clock


@contextmanager
def _interpreted():
    """Every query a sensor runs goes through the tree-walking
    interpreter — ``VirtualSensor`` looks ``run_plan`` up at call time,
    the seam ``benchmarks/e2e/layers.py`` patches too."""
    compiled = sensor_module.run_plan
    sensor_module.run_plan = lambda plan, catalog: (
        execute_plan(plan, catalog), False)
    try:
        yield
    finally:
        sensor_module.run_plan = compiled


def _per_trigger_seconds(descriptor, aliases, delta,
                         fire, warmup=1_000, ticks=200,
                         producer=None, schema=None):
    """Mean wall-clock seconds of one trigger after the window is full.

    ``delta=False`` is the reference every cell is timed against: no
    delta states, and every query interpreted on every trigger."""
    sensor, wrappers, clock = _build_sensor(descriptor, aliases, delta,
                                            producer=producer,
                                            schema=schema)
    firing = [wrappers[alias] for alias in fire]
    with nullcontext() if delta else _interpreted():
        for _ in range(warmup):
            clock.advance(1)
            for wrapper in wrappers.values():
                wrapper.tick()
        produced = sensor.elements_produced
        start = perf_counter()
        for _ in range(ticks):
            clock.advance(1)
            for wrapper in firing:
                wrapper.tick()
        elapsed = perf_counter() - start
    assert sensor.elements_produced > produced
    return elapsed / ticks, sensor


def test_incremental_aggregate_window_speedup() -> None:
    """Per-trigger cost of a 1000-element count-window aggregate query,
    incremental accumulators vs. interpreting the query every trigger.
    Both numbers land in BENCH_micro.json; the speedup is the tentpole
    claim of the incremental pipeline."""
    descriptor = _sensor_descriptor([("src", "1000", _AGG_QUERY)],
                                    "select * from src")
    incremental, __ = _per_trigger_seconds(descriptor, ("src",), True,
                                           fire=("src",))
    legacy, __ = _per_trigger_seconds(descriptor, ("src",), False,
                                      fire=("src",))
    register_metric("per_trigger_aggregate_window1000", {
        "window": 1000,
        "incremental_ms": incremental * 1_000,
        "legacy_ms": legacy * 1_000,
        "speedup": legacy / incremental,
        "floor": 10,
    })


def test_incremental_multi_source_cache_speedup() -> None:
    """Two 1000-element sources where only one fires per trigger: the
    idle source's temporary is served from the version-keyed cache on
    both sides, so the cell is the firing source's accumulators vs.
    interpreting its query (and the output query) every trigger."""
    descriptor = _sensor_descriptor(
        [("a", "1000", _AGG_QUERY), ("b", "1000", _AGG_QUERY)],
        "select a.n as n, a.s + b.s as s, a.a as a, "
        "b.lo as lo, b.hi as hi from a, b",
    )
    incremental, __ = _per_trigger_seconds(descriptor, ("a", "b"), True,
                                           fire=("a",))
    legacy, __ = _per_trigger_seconds(descriptor, ("a", "b"), False,
                                      fire=("a",))
    register_metric("per_trigger_multi_source_one_firing", {
        "window": 1000,
        "sources": 2,
        "incremental_ms": incremental * 1_000,
        "legacy_ms": legacy * 1_000,
        "speedup": legacy / incremental,
    })


# -- compiled/legacy/incremental operator matrix -----------------------------

_MATRIX_SCHEMA = StreamSchema.build(g=DataType.INTEGER,
                                    v=DataType.INTEGER)


def _matrix_producer(now):
    return {"g": now % 10, "v": (now * 37) % 1_000}


def _join_producer(now):
    return {"g": now % 1_200, "v": now % 1_000}


#: operator -> (per-source SQL, output fields, incremental-eligible,
#: speedup floor). Ineligible shapes still run through the compiled
#: pipeline in incremental mode, so their column reads
#: compiled-vs-interpreted, not delta-vs-rebuild.
_MATRIX_OPERATORS = {
    "filter": ("select g, v from wrapper where v < 50",
               dict(g=DataType.INTEGER, v=DataType.INTEGER), False, None),
    "project": ("select g, v + v as w from wrapper where v < 50",
                dict(g=DataType.INTEGER, w=DataType.INTEGER), False, None),
    "order-by": ("select g, v from wrapper order by v desc limit 20",
                 dict(g=DataType.INTEGER, v=DataType.INTEGER), False, None),
    "group-by": ("select g, count(*) as n, sum(v) as s, avg(v) as a "
                 "from wrapper group by g",
                 dict(g=DataType.INTEGER, n=DataType.INTEGER,
                      s=DataType.INTEGER, a=DataType.DOUBLE), True, 10),
    "aggregate": (_AGG_QUERY, _AGG_FIELDS, True, 10),
}

_MATRIX_WINDOWS = (("count-1000", "1000"), ("time-1s", "1s"))


def test_incremental_operator_matrix() -> None:
    """Per-trigger cost of every physical operator over both window
    kinds, in each execution mode the engine has for the shape.

    Delta-maintained shapes (group-by, plain aggregates) record
    ``speedup`` (incremental vs interpreted) with the 10x floor the fast
    path claims; shapes without delta maintenance record
    ``compiled_speedup`` (compiled pipeline vs tree-walking
    interpreter), which carries no floor — it is tracked, not gated.
    """
    fast_path_workloads = []
    for window_label, window in _MATRIX_WINDOWS:
        for operator, spec in _MATRIX_OPERATORS.items():
            sql, fields, eligible, floor = spec
            descriptor = _sensor_descriptor([("src", window, sql)],
                                            "select * from src", fields)
            fast, sensor = _per_trigger_seconds(
                descriptor, ("src",), True, fire=("src",),
                producer=_matrix_producer, schema=_MATRIX_SCHEMA)
            slow, __ = _per_trigger_seconds(
                descriptor, ("src",), False, fire=("src",),
                producer=_matrix_producer, schema=_MATRIX_SCHEMA)
            name = f"matrix_{operator}_{window_label}"
            doc = {"operator": operator, "window": window_label}
            if eligible:
                counters = sensor.fast_paths.snapshot()
                assert counters["aggregate_hits"] > 0, (name, counters)
                fast_path_workloads.append(name)
                doc.update(incremental_ms=fast * 1_000,
                           legacy_ms=slow * 1_000,
                           speedup=slow / fast, floor=floor)
            else:
                doc.update(compiled_ms=fast * 1_000,
                           interpreted_ms=slow * 1_000,
                           compiled_speedup=slow / fast)
            register_metric(name, doc)
    register_metric("matrix_fast_path_workloads",
                    {"workloads": sorted(fast_path_workloads)})


def test_incremental_join_delta_speedup() -> None:
    """A delta-maintained two-source equi-join (count window joined
    against a time window) vs re-joining both windows every trigger."""
    fields = dict(g=DataType.INTEGER, av=DataType.INTEGER,
                  bv=DataType.INTEGER)
    descriptor = _sensor_descriptor(
        [("a", "1000", "select * from wrapper"),
         ("b", "1s", "select * from wrapper")],
        "select a.g as g, a.v as av, b.v as bv "
        "from a join b on a.g = b.g where a.v < 50",
        fields,
    )
    fast, sensor = _per_trigger_seconds(
        descriptor, ("a", "b"), True, fire=("a", "b"),
        producer=_join_producer, schema=_MATRIX_SCHEMA)
    counters = sensor.fast_paths.snapshot()
    assert counters["join_hits"] > 0, counters
    slow, __ = _per_trigger_seconds(
        descriptor, ("a", "b"), False, fire=("a", "b"),
        producer=_join_producer, schema=_MATRIX_SCHEMA)
    register_metric("matrix_join_count1000_x_time1s", {
        "operator": "join", "window": "count-1000 x time-1s",
        "incremental_ms": fast * 1_000,
        "legacy_ms": slow * 1_000,
        "speedup": slow / fast,
        "floor": 5,
    })


# -- a generated stage (fused filter) and the delta Top-1 -------------------

_CONJUNCTION_QUERY = (
    "select count(*) as n from t where timed >= 1000100 and value <= 900 "
    "and value >= 50 and grp <> 3 and id < 480")
_TOP_N_QUERY = "select g, v from wrapper where v > 10 order by g desc limit 1"


def test_compiled_filter_conjunction() -> None:
    """The standing-client shape (Figure 4): five integer predicates
    over a 500-row table, one fused generated loop vs the interpreter."""
    rows = [(i, i % 10, (i * 37) % 1000, 1_000_000 + i) for i in range(500)]
    catalog = Catalog({"t": Relation(("id", "grp", "value", "timed"), rows)})
    plan = plan_select(parse_select(_CONJUNCTION_QUERY))
    result, compiled = run_plan(plan, catalog)
    assert compiled and result.rows == execute_plan(plan, catalog).rows

    def best_ms(run) -> float:
        best = float("inf")
        for __ in range(5):
            start = perf_counter()
            for __ in range(100):
                run(plan, catalog)
            best = min(best, perf_counter() - start)
        return best * 10

    compiled_ms, interpreted_ms = best_ms(run_plan), best_ms(execute_plan)
    register_metric("filter_conjunction", {
        "operator": "filter", "rows": 500, "predicates": 5,
        "compiled_ms": compiled_ms, "interpreted_ms": interpreted_ms,
        "compiled_speedup": interpreted_ms / compiled_ms,
    })


def test_compiled_order_by_limit() -> None:
    """``ORDER BY ... LIMIT 1`` over 2000-row count and time windows
    (the per-source query of the gateway and fleet workloads): the delta
    Top-1 state, whose one row the source plan projects, vs the
    interpreter's full sort of the window on every trigger."""
    fields = dict(g=DataType.INTEGER, v=DataType.INTEGER)
    for window_label, window in (("count-2000", "2000"), ("time-2s", "2s")):
        descriptor = _sensor_descriptor([("src", window, _TOP_N_QUERY)],
                                        "select * from src", fields)
        fast, sensor = _per_trigger_seconds(
            descriptor, ("src",), True, fire=("src",), warmup=2_000,
            producer=_matrix_producer, schema=_MATRIX_SCHEMA)
        counters = sensor.fast_paths.snapshot()
        assert counters["aggregate_hits"] > 0, counters
        slow, __ = _per_trigger_seconds(
            descriptor, ("src",), False, fire=("src",), warmup=2_000,
            producer=_matrix_producer, schema=_MATRIX_SCHEMA)
        register_metric(f"order_by_limit_{window_label}", {
            "operator": "top-1", "window": window_label,
            "incremental_ms": fast * 1_000, "legacy_ms": slow * 1_000,
            "speedup": slow / fast, "floor": 8,
        })


def test_incremental_min_rising_series() -> None:
    """``min`` over a rising series in a 1000-element count window: every
    eviction removes the current minimum, so an extremum kept as one
    value would rescan the window per trigger; the monotone deque pops
    its front instead."""
    descriptor = _sensor_descriptor(
        [("src", "1000", "select min(v) as lo from wrapper")],
        "select * from src", dict(lo=DataType.INTEGER))
    fast, sensor = _per_trigger_seconds(
        descriptor, ("src",), True, fire=("src",),
        producer=lambda now: {"v": now})
    counters = sensor.fast_paths.snapshot()
    assert counters["aggregate_hits"] > 0, counters
    slow, __ = _per_trigger_seconds(
        descriptor, ("src",), False, fire=("src",),
        producer=lambda now: {"v": now})
    register_metric("min_rising_count-1000", {
        "operator": "min", "window": "count-1000",
        "incremental_ms": fast * 1_000, "legacy_ms": slow * 1_000,
        "speedup": slow / fast, "floor": 10,
    })


def test_incremental_static_coverage() -> None:
    """gsn-plan's static fast-path coverage over the shipped examples
    fleet, computed offline — the breadth claim behind the matrix.
    Recorded so check_micro.py can fail on coverage regressions."""
    import glob
    import os

    from repro.analysis.planpass import plan_descriptor
    from repro.descriptors.xml_io import descriptor_from_xml
    from repro.wrappers.registry import default_registry

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pattern = os.path.join(root, "examples", "descriptors", "*.xml")
    registry = default_registry()
    eligible = total = 0
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            descriptor = descriptor_from_xml(handle.read())
        covered, queries = plan_descriptor(descriptor,
                                           registry=registry).coverage()
        eligible += covered
        total += queries
    assert total > 0
    register_metric("fast_path_static_coverage", {
        "examples_eligible": eligible,
        "examples_total": total,
        "examples_percent": round(100.0 * eligible / total, 1),
    })


# -- tracing overhead --------------------------------------------------------


def _traced_node(sampling: float, warmup: int = 200):
    """A warmed container-deployed sensor at one trace-sampling rate;
    returns (container, tick) where ``tick`` advances the clock one
    wrapper interval and produces one element — the window stays at its
    steady-state size instead of growing across measurement rounds."""
    descriptor = dataclasses.replace(
        payload_descriptor("s", 1, 100, 1_024),  # default 10s window
        trace_sampling=sampling,
    )
    node = GSNContainer(f"trace-bench-{sampling}")
    node.deploy(descriptor)
    node.run_for(10_000)  # warm the window
    wrapper = node.sensor("s").wrappers["src"]
    clock = node.clock

    def tick() -> None:
        clock.advance(100)
        wrapper.tick()

    for _ in range(warmup):
        tick()
    return node, tick


def test_tracing_overhead() -> None:
    """Per-trigger cost of full pipeline tracing.

    The compiled pipeline made an unsampled trigger cheap enough
    (~0.2 ms on the reference workload) that differencing two
    end-to-end timings no longer resolves the tracer's ~15 us: machine
    jitter on each measurement is the same order as the quantity. So
    the 10% budget is asserted on the traced span protocol measured in
    isolation — begin, the four step children, finish with the
    histogram feeds and the ring-buffer push, exactly what sampling
    adds to a trigger — relative to the measured unsampled trigger.
    The end-to-end difference is still recorded and held under a loose
    noise bound so a genuine regression (say, a blocking sink) cannot
    hide behind the jitter argument."""
    sampled_node, sampled_tick = _traced_node(1.0)
    unsampled_node, unsampled_tick = _traced_node(0.0)
    ticks = 500
    sampled = unsampled = float("inf")
    try:
        for _ in range(7):
            start = perf_counter()
            for _ in range(ticks):
                sampled_tick()
            sampled = min(sampled, (perf_counter() - start) / ticks)
            start = perf_counter()
            for _ in range(ticks):
                unsampled_tick()
            unsampled = min(unsampled, (perf_counter() - start) / ticks)
    finally:
        sampled_node.shutdown()
        unsampled_node.shutdown()
    overhead_pct = (sampled - unsampled) / unsampled * 100.0

    # The traced path in isolation: everything sampling adds to one
    # trigger, without the end-to-end jitter.
    from repro.metrics.registry import MetricsRegistry
    from repro.metrics.tracing import new_trace_id

    tracer = PipelineTracer("s", sampling=1.0, sink=TraceBuffer(),
                            registry=MetricsRegistry())
    rounds = 20_000
    start = perf_counter()
    for _ in range(rounds):
        root = tracer.begin(new_trace_id(), 0, stream="input")
        for step in ("window_select", "source_query",
                     "output_query", "persist_notify"):
            root.child(step, source="src").finish()
        tracer.finish(root)
    traced_path = (perf_counter() - start) / rounds
    traced_pct = traced_path / unsampled * 100.0

    # The sampling-off path in isolation: sample() declines, begin()
    # returns None, finish(None) returns — the whole per-trigger cost
    # of a deployed-but-unsampled tracer.
    tracer = PipelineTracer("s", sampling=0.0, sink=TraceBuffer())
    rounds = 100_000
    start = perf_counter()
    for _ in range(rounds):
        tracer.sample()
        tracer.finish(tracer.begin(None, 0))
    untraced_path = (perf_counter() - start) / rounds
    untraced_pct = untraced_path / unsampled * 100.0

    register_metric("tracing_overhead_per_trigger", {
        "sampled_ms": sampled * 1_000,
        "unsampled_ms": unsampled * 1_000,
        "overhead_pct": overhead_pct,
        "traced_path_ns": traced_path * 1e9,
        "traced_pct_of_trigger": traced_pct,
        "untraced_path_ns": untraced_path * 1e9,
        "untraced_pct_of_trigger": untraced_pct,
    })
    assert traced_pct <= 10.0, \
        f"traced span protocol costs {traced_pct:.1f}% of a trigger"
    assert overhead_pct <= 25.0, \
        f"end-to-end tracing overhead {overhead_pct:.1f}% is beyond noise"
    assert untraced_pct < 1.0, \
        f"sampling-off path costs {untraced_pct:.2f}% of a trigger"


def test_profiler_overhead() -> None:
    """Continuous profiling must cost at most 2% of profiled wall time.

    The profiler keeps its own books — cumulative sweep seconds over
    the wall seconds of the background segment — so the benchmark runs
    it at the default rate against a threaded container with live
    worker threads and gates on that measured share. A directly-timed
    sweep loop also records the projected cost (mean sweep x rate),
    which stays meaningful on machines where a short wall segment is
    noisy."""
    from time import sleep

    from repro.metrics.profile import (
        DEFAULT_PROFILE_HZ, OVERHEAD_BUDGET_PERCENT, SamplingProfiler,
    )

    node = GSNContainer("profiled", synchronous=False)
    try:
        node.deploy(payload_descriptor("s", 1, 100, 1_024))
        node.run_for(2_000)  # warm: worker threads up and parked/busy

        # Mean sweep cost over the live container's thread population.
        sweeper = SamplingProfiler(hz=DEFAULT_PROFILE_HZ)
        rounds = 200
        start = perf_counter()
        for _ in range(rounds):
            sweeper.sample_once()
        mean_sweep_s = (perf_counter() - start) / rounds
        projected_pct = 100.0 * mean_sweep_s * DEFAULT_PROFILE_HZ

        # The real background segment the container would run with.
        profiler = SamplingProfiler(hz=DEFAULT_PROFILE_HZ)
        profiler.start()
        deadline = perf_counter() + 1.2
        while perf_counter() < deadline:
            node.run_for(100)  # keep the workers ticking while sampled
            sleep(0.005)
        profiler.stop()
    finally:
        node.shutdown()

    status = profiler.status()
    assert status["sweeps"] >= 10, "background segment took no sweeps"
    register_metric("profiler_overhead", {
        "profiler_overhead_pct": status["overhead_percent"],
        "budget_pct": OVERHEAD_BUDGET_PERCENT,
        "hz": DEFAULT_PROFILE_HZ,
        "sweeps": status["sweeps"],
        "samples": status["samples"],
        "mean_sweep_us": mean_sweep_s * 1e6,
        "projected_pct": round(projected_pct, 3),
    })
    assert status["overhead_percent"] <= OVERHEAD_BUDGET_PERCENT, \
        f"profiler cost {status['overhead_percent']:.2f}% of wall time"
    assert projected_pct <= OVERHEAD_BUDGET_PERCENT, \
        f"projected sweep cost {projected_pct:.2f}% at default rate"


def test_race_witness_overhead() -> None:
    """The race witness must stay within 2% of per-trigger ingest cost.

    The suite runs entirely under the witness, so its cost is paid on
    every pipeline trigger of every test: guarded-attribute rebinds on
    the instrumented classes go through a checked ``__setattr__``,
    guarded collections mutate through checking proxies, and the
    declared-guard locks update the hold tracker on every cycle. Like
    the tracing budget, the 2% gate is asserted on the witness path
    measured in isolation: the per-trigger mix of guard checks and
    tracked lock cycles is counted live on a container-deployed
    sensor's pipeline trigger (the reference ingest denominator), then
    replayed on a probe class armed and bare — differencing two
    end-to-end ~0.2 ms timings cannot resolve the witness's ~2 us, so
    the end-to-end difference is only held under a loose noise bound
    where a genuine regression (say, a blocking check) would still
    surface."""
    import math

    from repro.analysis import racewitness
    from repro.analysis.racewitness import RaceWitness, TrackingLock
    from repro.analysis.witness import arm, disarm
    from repro.concurrency import new_lock

    assert racewitness.active() is None, \
        "benchmarks must start with the race witness disarmed"
    counted = {"cycles": 0, "counting": False}

    def per_trigger(armed: bool, count_ops: bool = False):
        witness = arm(RaceWitness(strict=True)) if armed else None
        node = GSNContainer(f"race-witness-bench-{armed}")
        try:
            node.deploy(payload_descriptor("s", 1, 100, 1_024))
            node.run_for(10_000)  # warm the window
            wrapper = node.sensor("s").wrappers["src"]
            clock = node.clock
            for _ in range(300):
                clock.advance(100)
                wrapper.tick()
            ticks = 1_000
            checks_before = witness.checks if witness else 0
            counted["counting"] = count_ops
            start = perf_counter()
            for _ in range(ticks):
                clock.advance(100)
                wrapper.tick()
            elapsed = (perf_counter() - start) / ticks
            counted["counting"] = False
            checks = ((witness.checks - checks_before) / ticks
                      if witness else 0.0)
            return elapsed, checks
        finally:
            node.shutdown()
            if witness:
                disarm(witness)
                assert witness.checks > 0, \
                    "witness armed but never consulted: measuring nothing"
                assert not witness.unexpected(), \
                    [str(v) for v in witness.unexpected()]

    # Live per-trigger op counts: guard checks from the witness's own
    # counter, tracked-lock cycles from a temporarily counting __enter__.
    original_enter = TrackingLock.__enter__

    def counting_enter(self):
        if counted["counting"]:
            counted["cycles"] += 1
        return original_enter(self)

    TrackingLock.__enter__ = counting_enter  # type: ignore[method-assign]
    try:
        __, checks_per_trigger = per_trigger(True, count_ops=True)
    finally:
        TrackingLock.__enter__ = original_enter  # type: ignore
    cycles_per_trigger = counted["cycles"] / 1_000
    assert checks_per_trigger > 0, "no guard checks on the ingest path"

    # End-to-end, interleaved minima: drift cannot masquerade as
    # overhead, but the difference is noise-bounded, not 2%-gated.
    armed = bare = float("inf")
    for _ in range(3):
        cost, __ = per_trigger(True)
        armed = min(armed, cost)
        cost, __ = per_trigger(False)
        bare = min(bare, cost)
    overhead_pct = (armed - bare) / bare * 100.0

    # The witness path in isolation: one trigger's worth of checks and
    # tracked cycles replayed on a probe, armed minus bare.
    class _Probe:
        def __init__(self) -> None:
            self._lock = new_lock("_Probe._lock")
            self.count = 0  # guarded-by: _Probe._lock

    n_checks = max(1, math.ceil(checks_per_trigger))
    n_cycles = max(1, math.ceil(cycles_per_trigger))

    def mix_cost(probe) -> float:
        rounds = 20_000
        start = perf_counter()
        for i in range(rounds):
            for __ in range(n_cycles - 1):
                with probe._lock:
                    pass
            with probe._lock:
                for __ in range(n_checks):
                    probe.count = i
        return (perf_counter() - start) / rounds

    plain = _Probe()  # built disarmed: plain lock, plain setattr
    witness = arm(RaceWitness(strict=True))
    try:
        witness.instrument(_Probe)
        tracked = _Probe()
        assert isinstance(tracked._lock, TrackingLock)
        witnessed_mix = min(mix_cost(tracked) for __ in range(3))
        assert not witness.unexpected()
    finally:
        disarm(witness)
    plain_mix = min(mix_cost(plain) for __ in range(3))
    witness_path = witnessed_mix - plain_mix
    witness_pct = witness_path / bare * 100.0

    register_metric("race_witness_overhead", {
        "witnessed_ms": armed * 1_000,
        "bare_ms": bare * 1_000,
        "witness_overhead_pct": overhead_pct,
        "witness_path_ns": witness_path * 1e9,
        "witness_pct_of_trigger": witness_pct,
        "checks_per_trigger": checks_per_trigger,
        "lock_cycles_per_trigger": cycles_per_trigger,
        "budget_pct": 2.0,
    })
    assert witness_pct <= 2.0, \
        f"race witness path costs {witness_pct:.2f}% of a trigger (budget 2%)"
    assert overhead_pct <= 10.0, \
        f"end-to-end witness overhead {overhead_pct:.1f}% is beyond noise"


def test_catalog_history64_sqlite() -> None:
    """Microseconds per ``StorageManager.catalog()`` plus the read of the
    one table a standing query touches: a 64-row permanent history (the
    e2e ``gateway_delta`` output) among 16 output tables. This is the
    read every arrival at a subscribed table pays."""
    manager = StorageManager()
    schema = StreamSchema.build(seq=DataType.INTEGER, v=DataType.DOUBLE)
    tables = [manager.create_stream(f"vs_{index}", schema, retention="64",
                                    permanent=True)
              for index in range(16)]
    for seq in range(128):
        for table in tables:
            table.append(StreamElement({"seq": seq, "v": seq / 2},
                                       timed=seq))
    assert len(manager.catalog().get("vs_0")) == 64
    rounds = 2_000
    runs = []
    for __ in range(5):
        start = perf_counter()
        for __ in range(rounds):
            manager.catalog().get("vs_0")
        runs.append((perf_counter() - start) / rounds)
    manager.close()
    register_metric("catalog_history64_sqlite", {
        "rows": 64,
        "tables": 16,
        "catalog_us": min(runs) * 1e6,
    })


def test_node_throughput(benchmark) -> None:
    """Elements/second one node sustains end to end — the "GSN can
    tolerate high rates" claim in measurable form."""
    def run() -> float:
        with GSNContainer("throughput") as node:
            node.deploy(payload_descriptor("s", 1, 10, 100, window="1s"))
            node.run_for(5_000)
            return node.sensor("s").elements_produced / 5.0

    per_second = benchmark.pedantic(run, rounds=1, iterations=1)
    assert per_second >= 90, f"sustained only {per_second} elements/s"
