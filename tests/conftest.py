"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.crashwitness import CrashWitness
from repro.analysis.lockwitness import LockWitness
from repro.analysis.loopwitness import LoopWitness
from repro.analysis.racewitness import RaceWitness
from repro.analysis.witness import armed
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
def witnesses():
    """Run the whole suite under the four runtime witnesses.

    - lock order: every ``new_lock()`` in repro hands out an
      instrumented lock that raises LockOrderViolation the moment two
      locks are taken in an order inverted against
      ``repro.concurrency.LOCK_ORDER`` or a previously observed order;
    - races: every core shared class (:data:`racewitness.CORE_CLASSES`)
      raises :class:`racewitness.RaceWitnessViolation` at a write to a
      ``# guarded-by:`` attribute (or a mutation of a guarded
      collection) made without the declared lock; armed after the lock
      witness, so its tracking locks wrap the witnessed ones;
    - thread crashes: ``threading.excepthook`` records every exception
      escaping a thread (the GSN602 failure mode at runtime);
    - loop lag: every event loop the runtime starts runs a heartbeat,
      and a wake-up later than the stall ceiling is recorded (the
      runtime shadow of a GSN901 finding).

    Any violation, or any crash not wrapped in ``witness.expected()``,
    fails the session at teardown.
    """
    lock, race = LockWitness(strict=True), RaceWitness(strict=True)
    crash, loop = CrashWitness(), LoopWitness()
    with armed(lock, race, crash, loop):
        yield
    assert not lock.violations, lock.violations
    assert not lock.check_acyclic(), lock.check_acyclic()
    assert not race.unexpected(), [str(v) for v in race.unexpected()]
    assert not crash.unexpected(), [c.render() for c in crash.unexpected()]
    assert not loop.violations, [v.render() for v in loop.violations]


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
