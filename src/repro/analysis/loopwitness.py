"""Runtime event-loop lag witness.

The static pass (:mod:`repro.analysis.asyncgraph`) proves no blocking
call is *reachable* from a coroutine; this module checks the *process*:
while armed, every event loop the runtime starts (the async ingestion
gateway arms it automatically) runs a heartbeat task that measures how
late the loop wakes it up.  A healthy loop re-schedules the heartbeat
within a scheduling jitter of its interval; a loop stalled by a
synchronous call — exactly the defect class GSN901 flags statically —
wakes it late by the stall duration.  Any wake-up later than
``max_stall_ms`` is recorded as a :class:`LoopLagViolation` and the
suite-wide conftest fixture fails the run at teardown.

The witness is deliberately lock-free on the hot path: heartbeats run
on loop threads, and taking a sync lock there would be a GSN901
violation of our own rule.  ``violations.append`` and the counters rely
on GIL atomicity; the report is read from the main thread after the
loops have stopped.

Off by default: until a witness is armed (:mod:`repro.analysis.witness`),
:func:`active` returns ``None`` and loop owners skip the heartbeat
entirely — zero cost.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.witness import Witness

#: Default stall ceiling, generous enough for CI scheduling noise but
#: far below any real blocking call (sleep, socket accept, DB commit).
DEFAULT_MAX_STALL_MS = 250.0
#: Heartbeat interval — the measurement granularity.
DEFAULT_INTERVAL_MS = 20.0


@dataclass(frozen=True)
class LoopLagViolation:
    """One heartbeat that woke up later than the stall ceiling."""

    loop_name: str
    lag_ms: float
    limit_ms: float

    def render(self) -> str:
        return (f"event loop {self.loop_name!r} stalled for "
                f"{self.lag_ms:.1f}ms (ceiling {self.limit_ms:.0f}ms) — "
                f"a synchronous call is blocking the loop")


class LoopWitness(Witness):
    """Measures event-loop scheduling lag via a heartbeat coroutine."""

    def __init__(self, max_stall_ms: float = DEFAULT_MAX_STALL_MS,
                 interval_ms: float = DEFAULT_INTERVAL_MS) -> None:
        self.max_stall_ms = float(max_stall_ms)
        self.interval_ms = float(interval_ms)
        # Written from loop threads without a lock (GIL-atomic appends /
        # stores); read from the main thread after the loops stop.
        self.violations: List[LoopLagViolation] = []
        self.ticks = 0
        self.worst_ms = 0.0

    def record(self, loop_name: str, lag_ms: float) -> None:
        self.ticks += 1
        if lag_ms > self.worst_ms:
            self.worst_ms = lag_ms
        if lag_ms > self.max_stall_ms:
            self.violations.append(
                LoopLagViolation(loop_name, lag_ms, self.max_stall_ms)
            )

    async def heartbeat(self, loop_name: str = "loop") -> None:
        """Run forever on the loop under test; cancel to stop.

        Sleeps ``interval_ms`` and reports how much later than the
        interval the loop actually woke it — that excess *is* the time
        something else monopolized the loop.
        """
        loop = asyncio.get_running_loop()
        interval = self.interval_ms / 1000.0
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag_ms = (loop.time() - before - interval) * 1000.0
            if lag_ms > 0:
                self.record(loop_name, lag_ms)
            else:
                self.ticks += 1

    def status(self) -> dict:
        return {
            "ticks": self.ticks,
            "worst_ms": round(self.worst_ms, 3),
            "max_stall_ms": self.max_stall_ms,
            "violations": [v.render() for v in self.violations],
        }


#: The top armed witness (kept by :mod:`repro.analysis.witness`).
_active: Optional[LoopWitness] = None


def active() -> Optional[LoopWitness]:
    return _active
