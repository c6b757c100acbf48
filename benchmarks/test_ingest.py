"""Ingestion benchmarks: batched vs per-tuple delivery, witness cost.

Three machine-readable documents land in ``BENCH_ingest.json`` at the
repo root (written directly — the ``BENCH_micro.json`` session hook
owns that file):

- ``ingest_batched_vs_per_tuple``: tuples/second and per-call p99 of
  :meth:`VirtualSensor.ingest_batch` delivering the same tuple stream
  in gateway-sized batches vs one tuple at a time. The batched path
  amortizes one window-update + query evaluation over the whole batch;
  ``ingest_speedup`` carries the 5x floor gated by ``check_micro.py``.
- ``admission_batch48_delta``: microseconds per tuple of a 48-tuple
  ``ingest_batch`` on a delta-maintained ``max``/``avg`` query over a
  full 1000-element count window — admission (stamp, quality, sampler,
  window, accumulators) plus its one trigger; ``check_micro.py`` holds
  it under the ceiling in ``baseline.json``.
- ``loop_witness_overhead``: wall-clock cost of arming the event-loop
  lag witness heartbeat next to a busy loop, against its 2% budget —
  the least overhead over alternating bare/witnessed pairs, so a slow
  spell of the machine during one run does not read as witness cost.
"""

from __future__ import annotations

import asyncio
import json
import os
from time import perf_counter
from typing import List

from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StreamSourceSpec,
    VirtualSensorDescriptor,
)
from repro.gsntime.clock import VirtualClock
from repro.analysis.loopwitness import LoopWitness
from repro.storage.base import RetentionPolicy
from repro.storage.memory import MemoryStorage
from repro.streams.schema import StreamSchema
from repro.vsensor.virtual_sensor import VirtualSensor
from repro.wrappers.scripted import ScriptedWrapper

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_ingest.json")

# An order-by/limit shape: not delta-maintainable, so every trigger
# re-evaluates over the window — the cost batching amortizes.
_QUERY = "select v, count(*) as n from wrapper group by v order by n desc limit 20"
_FIELDS = dict(v=DataType.INTEGER, n=DataType.INTEGER)
_WRAPPER_FIELDS = dict(v=DataType.INTEGER)

WARMUP_TUPLES = 200
BENCH_TUPLES = 1_500
BATCH_SIZE = 128


def _write_doc(name: str, payload: dict) -> None:
    merged = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            merged = json.load(handle)
    merged[name] = payload
    with open(BENCH_PATH, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _build_sensor(query: str = _QUERY, fields: dict = _FIELDS,
                  wrapper_fields: dict = _WRAPPER_FIELDS) -> VirtualSensor:
    descriptor = VirtualSensorDescriptor(
        name="bench",
        output_structure=StreamSchema.build(**fields),
        input_streams=(InputStreamSpec(
            name="in",
            sources=(StreamSourceSpec(alias="src",
                                      address=AddressSpec("scripted"),
                                      query=query,
                                      storage_size="1000"),),
            query="select * from src",
        ),),
    )
    clock = VirtualClock(1_000_000)
    wrapper = ScriptedWrapper()
    wrapper.script(lambda now: {"v": (now * 37) % 1_000},
                   StreamSchema.build(**wrapper_fields))
    wrapper.attach(clock)
    wrapper.configure({})
    table = MemoryStorage().create("out", descriptor.output_structure,
                                   RetentionPolicy("count", 1_000))
    sensor = VirtualSensor(descriptor, clock, {"src": wrapper},
                           output_table=table)
    sensor.start()
    return sensor


def _drive(chunk_size: int) -> dict:
    """Deliver the benchmark stream in ``chunk_size``-tuple calls."""
    sensor = _build_sensor()
    tuples = [{"v": (i * 37) % 1_000} for i in range(BENCH_TUPLES)]
    warmup = [{"v": i % 1_000} for i in range(WARMUP_TUPLES)]
    for start in range(0, len(warmup), chunk_size):
        sensor.ingest_batch("in", "src", warmup[start:start + chunk_size])
    latencies: List[float] = []
    begin = perf_counter()
    for start in range(0, len(tuples), chunk_size):
        chunk = tuples[start:start + chunk_size]
        before = perf_counter()
        admitted = sensor.ingest_batch("in", "src", chunk)
        latencies.append(perf_counter() - before)
        assert admitted == len(chunk)
    elapsed = perf_counter() - begin
    sensor.stop()
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return {
        "tuples_per_s": BENCH_TUPLES / elapsed,
        "p99_call_ms": p99 * 1_000,
        "elapsed_ms": elapsed * 1_000,
    }


def test_batched_ingest_speedup() -> None:
    batched = _drive(BATCH_SIZE)
    per_tuple = _drive(1)
    speedup = batched["tuples_per_s"] / per_tuple["tuples_per_s"]
    _write_doc("ingest_batched_vs_per_tuple", {
        "tuples": BENCH_TUPLES,
        "batch_size": BATCH_SIZE,
        "batched_tuples_per_s": batched["tuples_per_s"],
        "per_tuple_tuples_per_s": per_tuple["tuples_per_s"],
        "batched_p99_ms": batched["p99_call_ms"],
        "per_tuple_p99_ms": per_tuple["p99_call_ms"],
        "ingest_speedup": speedup,
        "floor": 5,
    })
    assert speedup >= 5, (batched, per_tuple)


def test_admission_batch48_delta() -> None:
    """The gateway_delta shape of the e2e benchmark, in process."""
    batch_size, batches = 48, 400
    fields = dict(seq=DataType.INTEGER, v=DataType.DOUBLE)
    sensor = _build_sensor(
        "select max(seq) as seq, avg(v) as v from wrapper", fields, fields)
    tuples = [{"seq": i, "v": (i * 37 % 4_000) / 100.0}
              for i in range(1_000 + batch_size * batches)]
    sensor.ingest_batch("in", "src", tuples[:1_000])     # fill the window
    calls: List[float] = []
    for start in range(1_000, len(tuples), batch_size):
        chunk = tuples[start:start + batch_size]
        before = perf_counter()
        admitted = sensor.ingest_batch("in", "src", chunk)
        calls.append(perf_counter() - before)
        assert admitted == batch_size
    state = next(iter(sensor._agg_states.values()))
    assert state.healthy                                 # the delta shape
    sensor.stop()
    calls.sort()
    median_us = calls[len(calls) // 2] / batch_size * 1e6
    _write_doc("admission_batch48_delta", {
        "batch_size": batch_size,
        "batches": batches,
        "window": 1_000,
        "admission_us_per_tuple": median_us,
        "p90_us_per_tuple": calls[int(len(calls) * 0.9)] / batch_size * 1e6,
    })


def _churn_seconds(witness: LoopWitness | None, awaits: int) -> float:
    """Wall seconds of a fresh loop doing ``awaits`` bare yields."""

    async def main() -> float:
        heartbeat = None
        if witness is not None:
            heartbeat = asyncio.ensure_future(witness.heartbeat("bench"))
            await asyncio.sleep(0)
        begin = perf_counter()
        for _ in range(awaits):
            await asyncio.sleep(0)
        elapsed = perf_counter() - begin
        if heartbeat is not None:
            heartbeat.cancel()
        return elapsed

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


def test_loop_witness_overhead() -> None:
    awaits, pairs = 200_000, 5
    witness = LoopWitness(max_stall_ms=250.0, interval_ms=20.0)
    # (overhead %, bare s, witnessed s) per back-to-back pair, the order
    # inside a pair alternating; the box drifts by more than the budget
    # between runs, and only ever in one direction: slower.
    measured = []
    for index in range(pairs):
        order = (None, witness) if index % 2 == 0 else (witness, None)
        seconds = {armed is not None: _churn_seconds(armed, awaits)
                   for armed in order}
        bare, witnessed = seconds[False], seconds[True]
        measured.append(((witnessed - bare) / bare * 100.0, bare, witnessed))
    overhead_pct, bare, witnessed = min(measured)
    overhead_pct = max(0.0, overhead_pct)
    _write_doc("loop_witness_overhead", {
        "awaits": awaits,
        "pairs": pairs,
        "bare_ms": bare * 1_000,
        "witnessed_ms": witnessed * 1_000,
        "loop_witness_overhead_pct": overhead_pct,
        "budget_pct": 2.0,
    })
    assert overhead_pct <= 2.0, measured
