"""Unit tests for the runtime thread-crash witness and the supervised
restart-or-degrade behavior it backs (worker pool, life-cycle manager,
HTTP server)."""

import contextlib
import threading
import time

from repro.analysis import crashwitness
from repro.analysis.crashwitness import CrashWitness, ThreadCrash
from repro.analysis.witness import arm
from repro.descriptors.model import LifeCycleConfig
from repro.vsensor.lifecycle import LifecycleState, LifeCycleManager
from repro.vsensor.pool import WorkerPool


@contextlib.contextmanager
def session_expected():
    """Mark crashes as intentional in the suite-wide witness too."""
    witness = crashwitness.active()
    if witness is None:
        yield
        return
    with witness.expected():
        yield


@contextlib.contextmanager
def fresh_witness():
    """A hermetic witness whose hook does not chain into the suite's
    (and does not spray default tracebacks on stderr)."""
    previous = threading.excepthook
    threading.excepthook = lambda args: None
    witness = CrashWitness()
    witness.install()
    try:
        yield witness
    finally:
        witness.uninstall()
        threading.excepthook = previous


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def crash_thread(name="crasher"):
    thread = threading.Thread(
        target=lambda: (_ for _ in ()).throw(ValueError("meant to die")),
        name=name, daemon=True)
    thread.start()
    thread.join(timeout=5.0)


class TestCrashWitness:
    def test_hook_records_escaped_exception(self):
        with fresh_witness() as witness:
            crash_thread("gsn-test-crasher")
        assert len(witness.crashes) == 1
        crash = witness.crashes[0]
        assert crash.exc_type == "ValueError"
        assert crash.thread_name == "gsn-test-crasher"
        assert not crash.supervised
        assert "ValueError" in crash.trace

    def test_watch_attributes_owner_by_longest_prefix(self):
        with fresh_witness() as witness:
            witness.watch("gsn-pool-", "some-pool")
            witness.watch("gsn-pool-probe-", "probe")
            crash_thread("gsn-pool-probe-0")
        assert witness.crashes[0].owner == "probe"

    def test_unwatched_thread_is_unknown(self):
        with fresh_witness() as witness:
            crash_thread("mystery")
        assert witness.crashes[0].owner == "unknown"

    def test_on_crash_callback_runs_and_errors_are_contained(self):
        seen = []

        def cb(crash):
            seen.append(crash)
            raise RuntimeError("broken callback")

        with fresh_witness() as witness:
            witness.watch("gsn-pool-", "probe", on_crash=cb)
            crash_thread("gsn-pool-0")
            crash_thread("gsn-pool-1")
        assert len(seen) == 2
        assert all(isinstance(c, ThreadCrash) for c in seen)

    def test_expected_context_excuses_crashes(self):
        with fresh_witness() as witness:
            with witness.expected():
                crash_thread()
            crash_thread()
        assert len(witness.crashes) == 2
        assert len(witness.unexpected()) == 1
        assert not witness.unexpected()[0].expected

    def test_report_is_the_supervised_path(self):
        witness = CrashWitness()  # never installed: report() is direct
        try:
            raise OSError("disk on fire")
        except OSError as exc:
            crash = witness.report("gsn-pool-probe-0", exc, owner="probe")
        assert crash.supervised
        assert crash.owner == "probe"
        assert witness.counts_by_owner() == {"probe": 1}
        assert "OSError" in crash.render()

    def test_status_document(self):
        witness = CrashWitness()
        try:
            raise ValueError("v")
        except ValueError as exc:
            witness.report("t", exc, owner="a")
        doc = witness.status()
        assert doc["crashes"] == 1
        assert doc["unexpected"] == 1
        assert doc["by_owner"] == {"a": 1}
        assert "ValueError" in doc["last"]
        assert doc["installed"] is False

    def test_arm_is_idempotent(self):
        active = crashwitness.active()
        hook = threading.excepthook
        assert arm(active) is active
        assert crashwitness.active() is active
        assert threading.excepthook == hook


class TestPoolSupervision:
    def _corrupted_pool(self, monkeypatch, **kwargs):
        pool = WorkerPool(size=1, synchronous=False, name="crashy",
                          **kwargs)

        def bad_run(task):
            raise RuntimeError("worker corrupted")

        monkeypatch.setattr(pool, "_run", bad_run)
        return pool

    def test_crashed_worker_is_restarted(self, monkeypatch):
        pool = self._corrupted_pool(monkeypatch)
        with session_expected():
            pool.submit(lambda: None)
            assert wait_until(lambda: pool.restarts >= 1)
        assert pool.workers_crashed >= 1
        assert not pool.degraded
        pool.shutdown()

    def test_crash_budget_exhaustion_degrades(self, monkeypatch):
        reasons = []
        pool = self._corrupted_pool(monkeypatch,
                                    on_degraded=reasons.append)
        with session_expected():
            for __ in range(pool.MAX_RESTARTS + 1):
                pool.submit(lambda: None)
            assert wait_until(lambda: pool.degraded)
        assert pool.restarts == pool.MAX_RESTARTS
        assert pool.workers_crashed == pool.MAX_RESTARTS + 1
        assert len(reasons) == 1 and "budget" in reasons[0]
        status = pool.status()
        assert status["degraded"] is True
        assert status["workers_crashed"] == pool.MAX_RESTARTS + 1
        pool.shutdown()

    def test_crashes_reach_the_witness(self, monkeypatch):
        witness = crashwitness.active()
        before = witness.counts_by_owner().get("crashy", 0)
        pool = self._corrupted_pool(monkeypatch)
        with session_expected():
            pool.submit(lambda: None)
            assert wait_until(
                lambda: witness.counts_by_owner().get("crashy", 0) > before)
        crash = [c for c in witness.crashes if c.owner == "crashy"][-1]
        assert crash.supervised and crash.expected
        pool.shutdown()

    def test_task_failures_are_not_crashes(self):
        pool = WorkerPool(size=1, synchronous=False, name="tasks")
        pool.submit(lambda: (_ for _ in ()).throw(ValueError("task bug")))
        pool.drain()
        assert wait_until(lambda: pool.tasks_failed == 1)
        assert pool.workers_crashed == 0
        assert not pool.degraded
        pool.shutdown()


class TestLifecycleDegradation:
    def test_pool_degradation_marks_sensor_degraded(self, monkeypatch):
        lcm = LifeCycleManager("probe", LifeCycleConfig(pool_size=1),
                               synchronous=False)
        lcm.start(now=0)

        def bad_run(task):
            raise RuntimeError("boom")

        monkeypatch.setattr(lcm.pool, "_run", bad_run)
        with session_expected():
            for __ in range(lcm.pool.MAX_RESTARTS + 1):
                lcm.pool.submit(lambda: None)
            assert wait_until(
                lambda: lcm.state is LifecycleState.DEGRADED)
        assert lcm.is_processing  # degraded keeps processing
        doc = lcm.status()
        assert doc["state"] == "degraded"
        assert "budget" in doc["degraded_reason"]
        assert doc["counters"]["workers_crashed"] == \
            lcm.pool.MAX_RESTARTS + 1
        lcm.stop()

    def test_recover_returns_to_running(self):
        lcm = LifeCycleManager("probe", LifeCycleConfig(), synchronous=True)
        lcm.start(now=0)
        lcm.degrade("test reason")
        assert lcm.state is LifecycleState.DEGRADED
        lcm.recover()
        assert lcm.state is LifecycleState.RUNNING
        assert lcm.degraded_reason is None
        lcm.stop()

    def test_late_degradation_is_ignored(self):
        lcm = LifeCycleManager("probe", LifeCycleConfig(), synchronous=True)
        lcm.start(now=0)
        lcm.stop()
        lcm._pool_degraded("too late")  # must not raise
        assert lcm.state is LifecycleState.STOPPED
