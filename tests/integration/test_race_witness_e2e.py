"""End-to-end: the race witness catches an unguarded counter under a
threaded worker pool.

This is the scenario the static pass (GSN801/GSN803) flags at lint time,
reproduced live: tasks running on pool workers bump a guarded counter
without taking the declared lock. With the suite-wide witness armed the
race turns into a deterministic, attributed violation at the faulty
write instead of a lost update.
"""

from __future__ import annotations

import pytest

from repro.analysis import racewitness
from repro.vsensor.pool import WorkerPool


@pytest.fixture
def threaded_pool():
    with WorkerPool(size=2, synchronous=False, name="race-e2e") as pool:
        yield pool


class TestRaceWitnessUnderPool:
    def test_unguarded_counter_bump_is_witnessed(self, threaded_pool):
        witness = racewitness.active()
        before = len(witness.violations)

        def racy_bump():
            # The bug under test: WorkerPool.tasks_completed declares
            # `guarded-by: WorkerPool._lock` and this write ignores it.
            threaded_pool.tasks_completed += 1

        with witness.expected():
            for __ in range(4):
                threaded_pool.submit(racy_bump)
            threaded_pool.drain()

        seen = [v for v in witness.violations[before:]
                if v.cls == "WorkerPool" and v.attr == "tasks_completed"]
        assert seen, "unguarded bump on a pool worker was not witnessed"
        assert all(v.expected for v in seen)
        assert any(v.thread.startswith("gsn-pool-race-e2e") for v in seen)

    def test_guarded_bump_is_clean(self, threaded_pool):
        witness = racewitness.active()
        before = len(witness.violations)

        def disciplined_bump():
            with threaded_pool._lock:
                threaded_pool.tasks_shed += 1

        for __ in range(4):
            threaded_pool.submit(disciplined_bump)
        threaded_pool.drain()

        assert not threaded_pool.errors()
        assert len(witness.violations) == before

    def test_pool_own_bookkeeping_is_witness_clean(self, threaded_pool):
        # The pool's own counters (tasks_completed, restarts, ...) run
        # under the witness for the whole suite; a burst of real tasks
        # must produce zero violations.
        witness = racewitness.active()
        before = len(witness.violations)
        results = []
        for i in range(16):
            threaded_pool.submit(lambda i=i: results.append(i))
        threaded_pool.drain()
        assert sorted(results) == list(range(16))
        assert threaded_pool.status()["tasks_completed"] == 16
        assert len(witness.violations) == before
