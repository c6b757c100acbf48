"""Runtime race witness: guarded-attribute enforcement at mutate-time.

The static race pass (:mod:`repro.analysis.racegraph`, GSN8xx) proves
what it can about ``# guarded-by:`` declarations; this module enforces
the same declarations dynamically while the test suite runs — the
third runtime witness next to :mod:`repro.analysis.lockwitness`
(acquisition order) and :mod:`repro.analysis.crashwitness` (silent
thread deaths).

Arming a :class:`RaceWitness` (:mod:`repro.analysis.witness`) does two
things:

1. layers a *tracking* lock factory over the factory of the witnesses
   armed before it (usually the lock-order witness's), so
   :func:`repro.concurrency.new_lock` locks record which threads hold
   them right now.  Only locks whose registry names are declared
   guards of an instrumented class are wrapped — every other lock
   (windows, storage backends, clocks) passes through untouched, so
   the hot acquisition paths the witness never queries stay at native
   speed;
2. instruments the core runtime classes (:data:`CORE_CLASSES`): their
   declared guarded attributes are checked on every rebind
   (``__setattr__``) and — for list/dict/deque values — wrapped in
   checking proxies that assert on every in-place mutator
   (``append``, ``__setitem__``, ``update``, ...) that the declared
   guard is held by the mutating thread.

A violation raises :class:`RaceWitnessViolation` (an
``AssertionError``) at the exact mutate site — the data race becomes a
deterministic stack trace instead of a once-a-week corruption.  All
violations are also recorded on the witness; the conftest fixture
fails the session if any unexpected one occurred.  Use
:meth:`RaceWitness.expected` around deliberately racy test code.

Off by default: with the witness disarmed nothing is patched and
``new_lock`` returns whatever the other armed witnesses make — zero
overhead.

Limitations (by design, documented in docs/concurrency.md): only
declared guards on the instrumented classes are enforced; collection
proxies check mutators, not reads; attributes set before ``__init__``
returns are not checked (construction is single-threaded by
convention); locks not created through ``new_lock`` are invisible to
the tracker, so attributes guarded by them are skipped rather than
reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.witness import LockFactory, Witness

#: The classes the suite-wide witness instruments: every major
#: subsystem that aggregates status or counts across threads.
CORE_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.vsensor.virtual_sensor", "VirtualSensor"),
    ("repro.vsensor.pool", "WorkerPool"),
    ("repro.network.peer", "PeerNode"),
    ("repro.notifications.manager", "NotificationManager"),
    ("repro.metrics.registry", "MetricsRegistry"),
    ("repro.metrics.flight", "FlightRecorder"),
)

#: ``self.<attr> ... = ...  # guarded-by: <lock>`` on one line — the
#: declaration form the static pass verifies (GSN806), reused here as
#: the single source of truth for what to instrument.
_DECLARATION = re.compile(
    r"self\.(\w+)\s*[:=][^#\n]*#\s*guarded-by:\s*([A-Za-z_][\w.]*)"
)

_READY = "_gsn_race_ready"


class RaceWitnessViolation(AssertionError):
    """A guarded attribute was mutated without its guard held."""


@dataclass(frozen=True)
class Violation:
    """One recorded mutate-without-guard event."""

    cls: str
    attr: str
    guard: str
    thread: str
    expected: bool


def declared_guards(cls: type) -> Dict[str, str]:
    """``{attr: lock attribute}`` parsed from the class's source.

    Declarations may name the lock bare (``_lock``) or by its registry
    name (``WorkerPool._lock``); the tail is the attribute the lock is
    stored in, which is all the runtime check needs.
    """
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):
        return {}
    guards: Dict[str, str] = {}
    for match in _DECLARATION.finditer(source):
        attr, lock = match.group(1), match.group(2)
        guards.setdefault(attr, lock.rsplit(".", 1)[-1])
    return guards


def declared_guard_names(cls: type) -> set:
    """Registry names of the locks guarding ``cls``'s declared state.

    These are the only names the tracking factory needs to wrap; a
    bare declaration (``# guarded-by: _lock``) is qualified with the
    class name, matching the registry convention.
    """
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):
        return set()
    names = set()
    for match in _DECLARATION.finditer(source):
        lock = match.group(2)
        names.add(lock if "." in lock else f"{cls.__name__}.{lock}")
    return names


# --------------------------------------------------------------------------
# held-lock tracking
# --------------------------------------------------------------------------

_held = threading.local()


def _held_ids() -> Dict[int, int]:
    ids = getattr(_held, "ids", None)
    if ids is None:
        ids = _held.ids = {}
    return ids


class TrackingLock:
    """Delegates to the wrapped lock and tracks per-thread holds.

    Wraps whatever the previously installed factory produces (a plain
    stdlib lock, or the lock-order witness's instrumented lock) so the
    witnesses compose: ordering is asserted by the inner lock, holds
    are recorded here.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner: Any) -> None:
        self.name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            ids = _held_ids()
            ids[id(self)] = ids.get(id(self), 0) + 1
        return ok

    def release(self) -> None:
        ids = _held_ids()
        count = ids.get(id(self), 0)
        if count <= 1:
            ids.pop(id(self), None)
        else:
            ids[id(self)] = count - 1
        self._inner.release()

    def held_by_current_thread(self) -> bool:
        return id(self) in _held_ids()

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        return bool(locked()) if callable(locked) else False

    # ``with lock:`` is the hot path — one inner acquire plus two
    # thread-local dict operations, no delegation through acquire().
    def __enter__(self) -> "TrackingLock":
        self._inner.acquire()
        ids = getattr(_held, "ids", None)
        if ids is None:
            ids = _held.ids = {}
        key = id(self)
        ids[key] = ids.get(key, 0) + 1
        return self

    def __exit__(self, *exc_info: object) -> bool:
        ids = _held.ids
        key = id(self)
        count = ids[key]
        if count <= 1:
            del ids[key]
        else:
            ids[key] = count - 1
        self._inner.release()
        return False

    def __repr__(self) -> str:
        return f"<TrackingLock {self.name} inner={self._inner!r}>"


# --------------------------------------------------------------------------
# guarded collection proxies
# --------------------------------------------------------------------------

def _checked(method: Callable) -> Callable:
    @functools.wraps(method)
    def wrapper(self, *args: Any, **kwargs: Any) -> Any:
        gsn = self._gsn
        if gsn is not None:
            witness, owner, attr, lock_attr = gsn
            witness._check(owner, attr, lock_attr)
        return method(self, *args, **kwargs)
    return wrapper


class GuardedList(list):
    """A list that asserts its owner's guard on every mutator."""

    _gsn: Optional[tuple] = None

    append = _checked(list.append)
    extend = _checked(list.extend)
    insert = _checked(list.insert)
    remove = _checked(list.remove)
    pop = _checked(list.pop)
    clear = _checked(list.clear)
    sort = _checked(list.sort)
    reverse = _checked(list.reverse)
    __setitem__ = _checked(list.__setitem__)
    __delitem__ = _checked(list.__delitem__)
    __iadd__ = _checked(list.__iadd__)


class GuardedDict(dict):
    """A dict that asserts its owner's guard on every mutator."""

    _gsn: Optional[tuple] = None

    pop = _checked(dict.pop)
    popitem = _checked(dict.popitem)
    clear = _checked(dict.clear)
    update = _checked(dict.update)
    setdefault = _checked(dict.setdefault)
    __setitem__ = _checked(dict.__setitem__)
    __delitem__ = _checked(dict.__delitem__)


class GuardedDeque(deque):
    """A deque that asserts its owner's guard on every mutator."""

    _gsn: Optional[tuple] = None

    append = _checked(deque.append)
    appendleft = _checked(deque.appendleft)
    extend = _checked(deque.extend)
    extendleft = _checked(deque.extendleft)
    pop = _checked(deque.pop)
    popleft = _checked(deque.popleft)
    remove = _checked(deque.remove)
    clear = _checked(deque.clear)
    rotate = _checked(deque.rotate)
    __setitem__ = _checked(deque.__setitem__)
    __delitem__ = _checked(deque.__delitem__)
    __iadd__ = _checked(deque.__iadd__)


#: concrete built-in -> checking proxy; consulted on every guarded
#: rebind, so a module constant rather than a per-call literal.
_PROXY_TYPES: Dict[type, type] = {
    list: GuardedList, dict: GuardedDict, deque: GuardedDeque,
}


# --------------------------------------------------------------------------
# the witness
# --------------------------------------------------------------------------

@dataclass
class _Saved:
    init: Callable
    setattr_: Optional[Callable]
    guards: Dict[str, str]


class RaceWitness(Witness):
    """Patches classes so guarded-attribute mutations assert the guard."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[Violation] = []
        self.checks = 0  # guard checks performed (for the bench gate)
        # Plain stdlib lock on purpose: a leaf outside the witnessed
        # lock graph, like the crash witness's.
        self._mutex = threading.Lock()
        self._expected_depth = 0
        self._instrumented: Dict[type, _Saved] = {}
        #: registry names the tracking factory must wrap — the declared
        #: guards of every instrumented class. Grows as classes are
        #: instrumented; consulted live by :meth:`lock_factory`'s
        #: factory.
        self.tracked_names: set = set()

    # -- the check ---------------------------------------------------------

    def _check(self, owner: Any, attr: str, lock_attr: str) -> None:
        self.checks += 1
        lock = owner.__dict__.get(lock_attr)
        if type(lock) is not TrackingLock:
            return  # untracked lock (created before arming): no verdict
        if id(lock) in _held_ids():
            return
        self._violation(owner, attr, lock, lock_attr)

    def _violation(self, owner: Any, attr: str, lock: "TrackingLock",
                   lock_attr: str) -> None:
        """The slow path: record the event and (strict) raise."""
        cls_name = type(owner).__name__
        with self._mutex:
            expected = self._expected_depth > 0
            self.violations.append(Violation(
                cls_name, attr, lock.name,
                threading.current_thread().name, expected,
            ))
        if self.strict and not expected:
            raise RaceWitnessViolation(
                f"race witness: {cls_name}.{attr} mutated on thread "
                f"{threading.current_thread().name!r} without holding its "
                f"declared guard {lock.name} — wrap the mutation in "
                f"'with self.{lock_attr}:'"
            )

    @contextmanager
    def expected(self):
        """Mark deliberate violations (tests of the witness itself)."""
        with self._mutex:
            self._expected_depth += 1
        try:
            yield self
        finally:
            with self._mutex:
                self._expected_depth -= 1

    def unexpected(self) -> List[Violation]:
        with self._mutex:
            return [v for v in self.violations if not v.expected]

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, owner: Any, attr: str, lock_attr: str,
              value: Any) -> Any:
        proxy_type = _PROXY_TYPES.get(type(value))
        if proxy_type is None:
            return value
        if proxy_type is GuardedDeque:
            proxy = GuardedDeque(value, maxlen=value.maxlen)
        else:
            proxy = proxy_type(value)
        proxy._gsn = (self, owner, attr, lock_attr)
        return proxy

    def instrument(self, cls: type,
                   guards: Optional[Dict[str, str]] = None) -> None:
        """Patch ``cls`` so its declared guarded attributes are checked.

        ``guards`` (``{attr: lock attribute}``) defaults to the
        ``# guarded-by:`` declarations parsed from the class source.
        """
        if cls in self._instrumented:
            return
        if guards is None:
            guards = declared_guards(cls)
        if not guards:
            return
        self.tracked_names |= declared_guard_names(cls)
        witness = self
        saved = _Saved(cls.__init__, cls.__dict__.get("__setattr__"),
                       dict(guards))
        original_setattr = cls.__setattr__

        def checked_setattr(obj: Any, name: str, value: Any) -> None:
            # Hot on every pipeline trigger: the unguarded-attribute
            # and not-yet-armed exits must stay a dict probe each, and
            # the guarded exit avoids the _wrap call for scalars.
            lock_attr = guards.get(name)
            if lock_attr is not None:
                d = obj.__dict__
                if _READY in d:
                    witness.checks += 1
                    lock = d.get(lock_attr)
                    if (type(lock) is TrackingLock
                            and id(lock) not in _held_ids()):
                        witness._violation(obj, name, lock, lock_attr)
                    if value.__class__ in _PROXY_TYPES:
                        value = witness._wrap(obj, name, lock_attr, value)
            original_setattr(obj, name, value)

        @functools.wraps(saved.init)
        def witnessed_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            saved.init(obj, *args, **kwargs)
            if type(obj).__init__ is not witnessed_init:
                return  # subclass __init__ still running: stay silent
            for attr, lock_attr in guards.items():
                value = obj.__dict__.get(attr)
                wrapped = witness._wrap(obj, attr, lock_attr, value)
                if wrapped is not value:
                    object.__setattr__(obj, attr, wrapped)
            object.__setattr__(obj, _READY, True)

        cls.__setattr__ = checked_setattr  # type: ignore[method-assign]
        cls.__init__ = witnessed_init  # type: ignore[method-assign]
        self._instrumented[cls] = saved

    def restore(self, cls: type) -> None:
        saved = self._instrumented.pop(cls, None)
        if saved is None:
            return
        cls.__init__ = saved.init  # type: ignore[method-assign]
        if saved.setattr_ is not None:
            cls.__setattr__ = saved.setattr_  # type: ignore[method-assign]
        else:
            del cls.__setattr__

    def restore_all(self) -> None:
        for cls in list(self._instrumented):
            self.restore(cls)

    # -- the witness protocol ----------------------------------------------

    def install(self) -> None:
        """Instrument the core classes. Locks created before arming are
        invisible to the tracker; instances of the core classes
        constructed before arming keep their original behavior (only
        construction after arming arms the checks)."""
        for module_name, cls_name in CORE_CLASSES:
            module = importlib.import_module(module_name)
            self.instrument(getattr(module, cls_name))

    def uninstall(self) -> None:
        self.restore_all()

    def lock_factory(self, inner: LockFactory) -> LockFactory:
        def tracking_factory(name: str, reentrant: bool = False) -> object:
            lock = inner(name, reentrant)
            # Wrap only declared guards of instrumented classes; the
            # tracker never queries any other lock, so wrapping them
            # would be pure overhead on the hottest acquisition paths.
            if name in self.tracked_names:
                return TrackingLock(name, lock)
            return lock

        return tracking_factory


#: The top armed witness (kept by :mod:`repro.analysis.witness`).
_active: Optional[RaceWitness] = None


def active() -> Optional[RaceWitness]:
    return _active
