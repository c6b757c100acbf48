"""Unit tests for the runtime event-loop lag witness."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.analysis import loopwitness
from repro.analysis.loopwitness import LoopLagViolation, LoopWitness
from repro.analysis.witness import armed


def drive(witness, body, duration=0.2):
    """Run ``body`` next to a heartbeat on a fresh loop."""

    async def main():
        task = asyncio.ensure_future(witness.heartbeat("test-loop"))
        try:
            await body()
            await asyncio.sleep(duration)
        finally:
            task.cancel()

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(main())
    finally:
        loop.close()


class TestLoopWitness:
    def test_clean_loop_records_no_violation(self):
        witness = LoopWitness(max_stall_ms=250.0, interval_ms=10.0)

        async def idle():
            await asyncio.sleep(0.05)

        drive(witness, idle)
        assert witness.ticks > 0
        assert not witness.violations

    def test_stalled_loop_is_caught(self):
        witness = LoopWitness(max_stall_ms=50.0, interval_ms=10.0)

        async def stall():
            # Let the heartbeat park in its sleep first, then do the one
            # thing a coroutine must never do — block the thread.
            await asyncio.sleep(0.03)
            time.sleep(0.15)

        drive(witness, stall)
        assert witness.violations
        worst = max(v.lag_ms for v in witness.violations)
        assert worst == pytest.approx(150.0, abs=100.0)
        assert witness.worst_ms >= worst

    def test_violation_render_names_the_loop(self):
        violation = LoopLagViolation("ingest", 312.5, 250.0)
        text = violation.render()
        assert "'ingest'" in text
        assert "312.5ms" in text
        assert "250ms" in text

    def test_record_thresholds(self):
        witness = LoopWitness(max_stall_ms=100.0)
        witness.record("loop", 99.0)
        witness.record("loop", 101.0)
        assert witness.ticks == 2
        assert witness.worst_ms == 101.0
        assert len(witness.violations) == 1

    def test_status_shape(self):
        witness = LoopWitness(max_stall_ms=100.0)
        witness.record("loop", 120.0)
        status = witness.status()
        assert status["ticks"] == 1
        assert status["worst_ms"] == 120.0
        assert status["max_stall_ms"] == 100.0
        assert len(status["violations"]) == 1


class TestModuleSwitch:
    def test_arm_disarm_roundtrip(self):
        # The suite fixture armed a witness; arming another on top
        # shadows it, and disarming brings it back.
        previous = loopwitness.active()
        witness = LoopWitness(max_stall_ms=77.0)
        with armed(witness):
            assert loopwitness.active() is witness
        assert loopwitness.active() is previous

    def test_suite_fixture_is_armed_by_default(self):
        assert loopwitness.active() is not None
