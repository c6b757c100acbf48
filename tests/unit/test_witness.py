"""The one arming protocol of the runtime witnesses.

The suite fixture has the four session witnesses armed; each test arms
fresh witnesses on top and checks what disarming them, in any order,
leaves behind.
"""

from __future__ import annotations

import threading

from repro.analysis import crashwitness, lockwitness, racewitness
from repro.analysis.crashwitness import CrashWitness
from repro.analysis.lockwitness import LockWitness, WitnessedLock
from repro.analysis.racewitness import RaceWitness, TrackingLock
from repro.analysis.witness import arm, armed, disarm
from repro.concurrency import new_lock

#: A declared guard of an instrumented class: the race witness tracks it.
TRACKED = "WorkerPool._lock"


def lock_owners(lock):
    """The lock witnesses whose layers make up ``lock``, outermost first."""
    owners = []
    while True:
        if isinstance(lock, TrackingLock):
            lock = lock._inner
        elif isinstance(lock, WitnessedLock):
            owners.append(lock._witness)
            lock = lock._lock
        else:
            return owners


class TestDisarmOrder:
    def test_disarming_the_lock_witness_keeps_the_race_witness(self):
        session_lock = lockwitness.active()
        lock, race = LockWitness(strict=True), RaceWitness(strict=True)
        with armed(lock, race):
            assert lock_owners(new_lock(TRACKED))[0] is lock
            disarm(lock)
            assert racewitness.active() is race
            assert lockwitness.active() is session_lock
            # Still tracked, so the race witness still gives a verdict,
            # and the disarmed lock witness wraps nothing any more.
            tracked = new_lock(TRACKED)
            assert isinstance(tracked, TrackingLock)
            assert lock not in lock_owners(tracked)
            with tracked:
                assert tracked.held_by_current_thread()
            disarm(race)
            assert lock not in lock_owners(new_lock(TRACKED))
        assert lock_owners(new_lock(TRACKED)) == [session_lock]

    def test_disarming_a_crash_witness_keeps_the_hooks_above_it(self):
        session_hook = threading.excepthook
        below, above = CrashWitness(), CrashWitness()
        with armed(below, above):
            disarm(below)
            assert crashwitness.active() is above
            assert threading.excepthook == above._hook
            assert above._previous_hook == session_hook
        assert threading.excepthook == session_hook

    def test_arm_is_idempotent_and_armed_restores_what_was_there(self):
        session_race = racewitness.active()
        witness = LockWitness(strict=True)
        with armed(witness):
            assert arm(witness) is witness
            with armed(witness, session_race):
                pass
            assert lockwitness.active() is witness
            assert racewitness.active() is session_race
        assert lockwitness.active() is not witness
        assert racewitness.active() is session_race
