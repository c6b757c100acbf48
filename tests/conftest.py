"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.analysis import (
    crashwitness, lockwitness, loopwitness, racewitness,
)
from repro.container import GSNContainer
from repro.datatypes import DataType
from repro.descriptors.model import (
    AddressSpec, InputStreamSpec, StorageConfig, StreamSourceSpec,
    VirtualSensorDescriptor,
)
from repro.gsntime.clock import VirtualClock
from repro.gsntime.scheduler import EventScheduler
from repro.streams.schema import Field, StreamSchema
from repro.vsensor.virtual_sensor import VirtualSensor


@pytest.fixture(scope="session", autouse=True)
def lock_order_witness():
    """Run the whole suite under the runtime lock-order witness.

    Every ``new_lock()`` in repro hands out an instrumented lock that
    records per-thread acquisition order and raises LockOrderViolation
    the moment two locks are taken in an order inverted against
    ``repro.concurrency.LOCK_ORDER`` or a previously observed order.
    Opt out with ``GSN_LOCK_WITNESS=0`` (e.g. when bisecting an
    unrelated failure).
    """
    if os.environ.get("GSN_LOCK_WITNESS", "1") == "0":
        yield None
        return
    witness = lockwitness.enable(strict=True)
    try:
        yield witness
    finally:
        lockwitness.disable()
    assert not witness.violations, witness.violations
    assert not witness.check_acyclic(), witness.check_acyclic()


@pytest.fixture(scope="session", autouse=True)
def race_witness(lock_order_witness):
    """Run the whole suite under the runtime race witness.

    Every core shared class (:data:`racewitness.CORE_CLASSES`) is
    instrumented so that writing a ``# guarded-by:`` attribute — or
    mutating a guarded collection — without holding the declared lock
    raises :class:`racewitness.RaceWitnessViolation` at the faulty
    write, with the attribute, guard, and thread in the message.
    Depends on ``lock_order_witness`` so locks are created by whichever
    factory stack is active (the witnesses compose by wrapping). Opt
    out with ``GSN_RACE_WITNESS=0``.
    """
    if os.environ.get("GSN_RACE_WITNESS", "1") == "0":
        yield None
        return
    witness = racewitness.enable(strict=True)
    try:
        yield witness
    finally:
        racewitness.disable()
    unexpected = witness.unexpected()
    assert not unexpected, [str(v) for v in unexpected]


@pytest.fixture(scope="session", autouse=True)
def thread_crash_witness():
    """Run the whole suite under the runtime thread-crash witness.

    ``threading.excepthook`` is replaced with a sentinel that records
    every exception escaping a thread (the GSN602 failure mode at
    runtime). Any *unexpected* crash — one not wrapped in
    ``witness.expected()`` — fails the suite at the end of the session.
    Opt out with ``GSN_CRASH_WITNESS=0``.
    """
    if os.environ.get("GSN_CRASH_WITNESS", "1") == "0":
        yield None
        return
    witness = crashwitness.enable()
    try:
        yield witness
    finally:
        crashwitness.disable()
    unexpected = witness.unexpected()
    assert not unexpected, [crash.render() for crash in unexpected]


@pytest.fixture(scope="session", autouse=True)
def loop_lag_witness():
    """Run the whole suite under the event-loop lag witness.

    Every event loop the runtime starts (the async ingest gateway arms
    this automatically) runs a heartbeat task; a wake-up later than the
    stall ceiling — the runtime shadow of a GSN901 finding — is
    recorded and fails the suite at teardown. Opt out with
    ``GSN_LOOP_WITNESS=0``; tune the ceiling (milliseconds) with
    ``GSN_LOOP_WITNESS_MS``.
    """
    if os.environ.get("GSN_LOOP_WITNESS", "1") == "0":
        yield None
        return
    ceiling = float(os.environ.get(
        "GSN_LOOP_WITNESS_MS", loopwitness.DEFAULT_MAX_STALL_MS))
    witness = loopwitness.enable(max_stall_ms=ceiling)
    try:
        yield witness
    finally:
        loopwitness.disable()
    assert not witness.violations, [v.render() for v in witness.violations]


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock(1_000_000)


@pytest.fixture
def scheduler(clock: VirtualClock) -> EventScheduler:
    return EventScheduler(clock)


@pytest.fixture
def container():
    with GSNContainer("test") as node:
        yield node


def simple_mote_descriptor(name: str = "probe", interval_ms: int = 500,
                           window: str = "5s", permanent: bool = True,
                           history: str = "1h",
                           source_query: str = (
                               "select avg(temperature) as temperature "
                               "from wrapper"),
                           stream_query: str = "select * from src",
                           rate: float = 0.0,
                           sampling: float = 1.0,
                           disconnect_buffer: int = 0,
                           ) -> VirtualSensorDescriptor:
    """The canonical single-mote averaged-temperature descriptor."""
    return VirtualSensorDescriptor(
        name=name,
        output_structure=StreamSchema([
            Field("temperature", DataType.INTEGER),
        ]),
        input_streams=(InputStreamSpec(
            name="in",
            sources=(StreamSourceSpec(
                alias="src",
                address=AddressSpec("mica2", {"interval": str(interval_ms),
                                              "node-id": "1"}),
                query=source_query,
                storage_size=window,
                sampling_rate=sampling,
                disconnect_buffer=disconnect_buffer,
            ),),
            query=stream_query,
            rate=rate,
        ),),
        storage=StorageConfig(permanent=permanent, history_size=history),
        addressing={"type": "temperature", "location": "lab"},
    )


class WholeWindowSensor(VirtualSensor):
    """A sensor that attaches no delta state (no running accumulators,
    no delta join): every query folds the whole window on each trigger,
    through the version-keyed cache and the compiled pipeline. The
    reference twin the equivalence tests compare delta states with."""

    def _attach_fast_path(self, stream_name, source):
        pass

    def _attach_join(self, stream_name, runtime):
        pass


@pytest.fixture
def mote_descriptor_factory():
    return simple_mote_descriptor
