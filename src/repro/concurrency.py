"""Lock construction and the container's sanctioned lock order.

Every lock in the threaded runtime is created through :func:`new_lock`
with a stable, class-qualified name (``"WorkerPool._lock"``,
``"TraceBuffer._lock"``). By default this returns a plain
:class:`threading.Lock`/:class:`threading.RLock` — zero overhead, no
wrapper object — so production containers pay nothing for the naming.

While the lock-order witness is armed (:mod:`repro.analysis.witness`,
which the test suite does through a conftest fixture) the factory
returns instrumented locks that record the actual per-thread
acquisition order and assert it against :data:`LOCK_ORDER` and against
previously observed edges — the runtime cross-check of
``gsn-lint --deadlock``'s static acquisition graph.

``LOCK_ORDER`` is the sanctioned set of "outer before inner" pairs.  It
must stay acyclic, and it must agree with the ``# lock-order:``
declarations the static pass reads from the sources (the witness and the
analyzer share the class-qualified naming scheme, so the same pair can
be written down once per world: here for the runtime, in a trailing
comment for the analyzer).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

#: Sanctioned acquisition order, outermost lock first.  A thread holding
#: the right-hand lock of a pair must never try to acquire the left-hand
#: one.  Keep this list in sync with docs/concurrency.md and with the
#: ``# lock-order:`` source annotations.
LOCK_ORDER: Tuple[Tuple[str, str], ...] = (
    # Step 5 of the pipeline: the emit lock serializes persistence and
    # counter updates; appending to a permanent SQLite table then takes
    # the storage backend's connection lock.
    ("VirtualSensor._emit_lock", "SQLiteStorage._lock"),
    ("VirtualSensor._emit_lock", "SQLiteStreamTable._lock"),
    # The peer node registers/unregisters its subscription maps under its
    # own lock before touching the (unlocked, scheduler-driven) bus, and
    # remote element delivery lands in the sensor's emit path.
    ("PeerNode._lock", "VirtualSensor._emit_lock"),
)

#: Installed by :mod:`repro.analysis.witness` from the armed witnesses;
#: ``None`` means "plain stdlib locks" (the production default).
_witness_factory: Optional[Callable[[str, bool], object]] = None


def new_lock(name: str, reentrant: bool = False):
    """Create the lock named ``name``.

    Returns a plain :class:`threading.Lock` (or ``RLock`` when
    ``reentrant``) unless the lock-order witness is installed, in which
    case an instrumented lock with identical semantics is returned.
    """
    factory = _witness_factory
    if factory is not None:
        return factory(name, reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def install_witness(factory: Optional[Callable[[str, bool], object]]) -> None:
    """Install (or, with ``None``, remove) the witness lock factory."""
    global _witness_factory
    _witness_factory = factory
