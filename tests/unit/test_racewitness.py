"""Unit tests for the runtime race witness."""

from __future__ import annotations

import threading
from collections import deque

import pytest

from repro.analysis import racewitness
from repro.analysis.racewitness import (
    GuardedDeque, GuardedDict, GuardedList, RaceWitness,
    RaceWitnessViolation, TrackingLock, declared_guard_names,
    declared_guards,
)
from repro.analysis.witness import arm


class Box:
    def __init__(self) -> None:
        self._lock = TrackingLock("Box._lock", threading.Lock())
        self.items = []  # guarded-by: Box._lock
        self.table = {}  # guarded-by: Box._lock
        self.count = 0  # guarded-by: Box._lock
        self.free = 0


class Ring:
    def __init__(self) -> None:
        self._lock = TrackingLock("Ring._lock", threading.Lock())
        self.buf = deque(maxlen=4)  # guarded-by: Ring._lock


@pytest.fixture
def witness():
    w = RaceWitness(strict=True)
    w.instrument(Box)
    try:
        yield w
    finally:
        w.restore_all()


class TestDeclarationParsing:
    def test_declared_guards_resolve_to_lock_attr(self):
        assert declared_guards(Box) == {
            "items": "_lock", "table": "_lock", "count": "_lock",
        }

    def test_qualified_names_take_the_tail(self):
        class Q:
            def __init__(self) -> None:
                self._emit_lock = None
                self.n = 0  # guarded-by: Q._emit_lock

        assert declared_guards(Q) == {"n": "_emit_lock"}

    def test_guard_names_qualify_bare_declarations(self):
        class B:
            def __init__(self) -> None:
                self._lock = None
                self.n = 0  # guarded-by: _lock

        assert declared_guard_names(B) == {"B._lock"}
        assert declared_guard_names(Box) == {"Box._lock"}


class TestTrackingLock:
    def test_held_by_current_thread(self):
        lock = TrackingLock("t", threading.Lock())
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_reentrant_holds_refcount(self):
        lock = TrackingLock("t", threading.RLock())
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_holds_are_per_thread(self):
        lock = TrackingLock("t", threading.Lock())
        seen = []
        with lock:
            worker = threading.Thread(
                target=lambda: seen.append(lock.held_by_current_thread()))
            worker.start()
            worker.join()
        assert seen == [False]


class TestEnforcement:
    def test_guarded_mutations_under_lock_pass(self, witness):
        box = Box()
        with box._lock:
            box.items.append(1)
            box.table["k"] = 2
            box.count = 3
        assert witness.checks >= 3
        assert not witness.violations

    def test_unguarded_rebind_raises(self, witness):
        box = Box()
        with pytest.raises(RaceWitnessViolation, match="Box.count"):
            box.count = 1
        assert witness.unexpected()

    def test_unguarded_list_mutator_raises(self, witness):
        box = Box()
        with pytest.raises(RaceWitnessViolation, match="Box.items"):
            box.items.append(1)

    def test_unguarded_dict_mutator_raises(self, witness):
        box = Box()
        with pytest.raises(RaceWitnessViolation, match="Box.table"):
            box.table["k"] = 1

    def test_undeclared_attribute_is_not_checked(self, witness):
        box = Box()
        box.free = 9
        assert box.free == 9
        assert not witness.violations

    def test_reads_are_not_checked(self, witness):
        box = Box()
        assert box.count == 0
        assert list(box.items) == []
        assert not witness.violations

    def test_violation_from_worker_thread_names_the_thread(self, witness):
        box = Box()
        caught = []

        def worker():
            try:
                box.count = 7
            except RaceWitnessViolation as exc:
                caught.append(exc)

        thread = threading.Thread(target=worker, name="racy-worker")
        thread.start()
        thread.join()
        assert len(caught) == 1
        assert "racy-worker" in str(caught[0])
        assert witness.unexpected()[0].thread == "racy-worker"

    def test_expected_suppresses_the_raise_but_records(self, witness):
        box = Box()
        with witness.expected():
            box.count = 1
        assert box.count == 1
        assert witness.violations and witness.violations[0].expected
        assert not witness.unexpected()

    def test_collections_are_wrapped_on_construction(self, witness):
        box = Box()
        assert type(box.items) is GuardedList
        assert type(box.table) is GuardedDict

    def test_rebind_under_lock_keeps_the_proxy(self, witness):
        box = Box()
        with box._lock:
            box.items = [1, 2]
        assert type(box.items) is GuardedList
        with pytest.raises(RaceWitnessViolation):
            box.items.append(3)

    def test_deque_proxy_preserves_maxlen(self, witness):
        witness.instrument(Ring)
        ring = Ring()
        assert type(ring.buf) is GuardedDeque
        assert ring.buf.maxlen == 4
        with ring._lock:
            for i in range(6):
                ring.buf.append(i)
        assert list(ring.buf) == [2, 3, 4, 5]

    def test_untracked_lock_gives_no_verdict(self, witness):
        class Plain:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.n = 0  # guarded-by: Plain._lock

        witness.instrument(Plain)
        plain = Plain()
        plain.n = 1  # plain stdlib lock: the tracker cannot see holds
        assert plain.n == 1
        assert not witness.violations


class TestInstrumentationLifecycle:
    def test_restore_removes_all_checks(self):
        w = RaceWitness(strict=True)
        w.instrument(Box)
        w.restore_all()
        box = Box()
        box.count = 1  # no raise: class is back to normal
        assert type(box.items) is list

    def test_instrument_is_idempotent(self, witness):
        init = Box.__init__
        witness.instrument(Box)
        assert Box.__init__ is init

    def test_class_without_declarations_is_skipped(self, witness):
        class Bare:
            def __init__(self) -> None:
                self.n = 0

        init = Bare.__init__
        witness.instrument(Bare)
        assert Bare.__init__ is init

    def test_inheriting_subclass_is_armed(self, witness):
        class Sub(Box):
            pass

        sub = Sub()
        with pytest.raises(RaceWitnessViolation):
            sub.count = 1

    def test_subclass_with_own_init_stays_silent(self, witness):
        # Arming happens when the *witnessed* __init__ is outermost; a
        # subclass adding construction steps after super().__init__()
        # must not trip on its own (single-threaded) constructor.
        class Sub(Box):
            def __init__(self) -> None:
                super().__init__()
                self.count = 5  # construction, not a race

        sub = Sub()
        assert sub.count == 5
        assert not witness.violations


class TestSuiteWideFixture:
    def test_module_witness_is_active_and_idempotent(self):
        active = racewitness.active()
        assert active is not None
        assert arm(active) is active
        assert racewitness.active() is active

    def test_core_classes_are_instrumented(self):
        from repro.vsensor.pool import WorkerPool

        active = racewitness.active()
        assert WorkerPool in active._instrumented

    def test_new_lock_wraps_only_declared_guard_names(self):
        from repro.concurrency import new_lock

        # A declared guard of an instrumented class gets the tracker...
        lock = new_lock("WorkerPool._lock")
        assert isinstance(lock, TrackingLock)
        # ...every other lock passes through unwrapped: the witness
        # never queries it, so wrapping would be pure hot-path cost.
        other = new_lock("test.witness-probe")
        assert not isinstance(other, TrackingLock)
