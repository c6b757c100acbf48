"""Runtime thread-crash witness.

The static pass (:mod:`repro.analysis.flowgraph`) proves that no
exception type *can* escape a thread entry point; this module checks
the *process*. While armed, a :func:`threading.excepthook` sentinel
records every exception that escapes a thread — the exact failure mode
GSN602 lints against: a worker that dies and leaves its virtual sensor
deployed-but-dead.

Two reporting paths feed the same record list:

- the *hook* path — an exception reaches the top of a thread that
  nobody supervises.  The previous excepthook still runs afterwards,
  so default stderr tracebacks (and anything else chained in) are
  preserved;
- the *supervisor* path — a supervised loop (the worker pool, the HTTP
  server) catches the crash itself, reports it via :meth:`report`, and
  then restarts or degrades.  Supervised crashes never reach the hook,
  but they are still witnessed.

Components register their threads with :meth:`watch` (a thread-name
prefix mapped to an owner — typically the virtual-sensor name) so
records and the ``gsn_thread_crashes_total`` metric carry the owner
label. Intentional crashes in tests are wrapped in
:meth:`expected`; the conftest fixture fails the suite on any
*unexpected* record.

Off by default: until a witness is armed (:mod:`repro.analysis.witness`)
this module costs nothing and ``threading.excepthook`` is untouched.
"""

from __future__ import annotations

import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.witness import Witness


@dataclass(frozen=True)
class ThreadCrash:
    """One exception that escaped (or would have escaped) a thread."""

    thread_name: str
    owner: str
    exc_type: str
    message: str
    expected: bool
    supervised: bool
    timestamp: float
    trace: str = field(default="", compare=False)

    def render(self) -> str:
        kind = "supervised" if self.supervised else "escaped"
        return (f"{kind} crash in thread {self.thread_name!r} "
                f"(owner {self.owner!r}): {self.exc_type}: {self.message}")


class CrashWitness(Witness):
    """Records escaped thread exceptions, with owner attribution."""

    def __init__(self) -> None:
        # A plain leaf lock, deliberately outside the lock-witness
        # graph: the hook runs at arbitrary points (including while a
        # crashing thread holds witnessed locks), so it must never
        # participate in ordering checks itself.
        self._mutex = threading.Lock()
        self._watched: List[Tuple[str, str, Optional[Callable[
            [ThreadCrash], None]]]] = []  # guarded-by: _mutex
        self._observers: List[Callable[
            [ThreadCrash], None]] = []  # guarded-by: _mutex
        self.crashes: List[ThreadCrash] = []  # guarded-by: CrashWitness._mutex
        self._expected_depth = 0  # guarded-by: CrashWitness._mutex
        self._previous_hook: Optional[Callable] = None
        self.installed = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        self._previous_hook = threading.excepthook
        threading.excepthook = self._hook
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        threading.excepthook = self._previous_hook or threading.__excepthook__
        self._previous_hook = None
        self.installed = False

    # -- registration --------------------------------------------------------

    def watch(self, name_prefix: str, owner: str,
              on_crash: Optional[Callable[[ThreadCrash], None]] = None
              ) -> None:
        """Attribute threads whose name starts with ``name_prefix`` to
        ``owner``; ``on_crash`` (if given) runs on each of their
        crashes, outside the witness mutex."""
        with self._mutex:
            self._watched.append((name_prefix, owner, on_crash))

    def unwatch(self, name_prefix: str) -> None:
        with self._mutex:
            self._watched = [w for w in self._watched
                             if w[0] != name_prefix]

    def add_observer(self, observer: Callable[[ThreadCrash], None]) -> None:
        """Run ``observer`` on *every* recorded crash (supervised or
        escaped), outside the witness mutex. The flight recorder hooks
        in here so crash records land in the black box."""
        with self._mutex:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[ThreadCrash], None]
                        ) -> None:
        with self._mutex:
            self._observers = [o for o in self._observers
                               if o is not observer]

    # -- reporting paths -----------------------------------------------------

    def _hook(self, args) -> None:
        try:
            name = args.thread.name if args.thread is not None else "?"
            exc_type = getattr(args.exc_type, "__name__",
                               str(args.exc_type))
            trace = "".join(traceback.format_exception(
                args.exc_type, args.exc_value, args.exc_traceback))
            self._record(name, exc_type, str(args.exc_value or ""),
                         supervised=False, trace=trace)
        finally:
            previous = self._previous_hook or threading.__excepthook__
            previous(args)

    def report(self, thread_name: str, exc: BaseException,
               owner: Optional[str] = None) -> ThreadCrash:
        """Supervisor path: a caught crash that would otherwise have
        escaped (the supervisor handles recovery, the witness keeps
        the record)."""
        trace = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return self._record(thread_name, type(exc).__name__, str(exc),
                            supervised=True, trace=trace, owner=owner)

    def _record(self, thread_name: str, exc_type: str, message: str,
                supervised: bool, trace: str = "",
                owner: Optional[str] = None) -> ThreadCrash:
        callback: Optional[Callable[[ThreadCrash], None]] = None
        with self._mutex:
            if owner is None:
                owner = "unknown"
                best = -1
                for prefix, watched_owner, cb in self._watched:
                    if thread_name.startswith(prefix) and len(prefix) > best:
                        owner, callback, best = watched_owner, cb, len(prefix)
            else:
                for prefix, watched_owner, cb in self._watched:
                    if watched_owner == owner and cb is not None:
                        callback = cb
                        break
            crash = ThreadCrash(
                thread_name=thread_name, owner=owner, exc_type=exc_type,
                message=message, expected=self._expected_depth > 0,
                supervised=supervised, timestamp=time.time(), trace=trace,
            )
            self.crashes.append(crash)
            observers = list(self._observers)
        if callback is not None:
            try:
                callback(crash)
            except Exception:  # gsn-lint: disable=GSN601
                # A broken on_crash callback must not mask the crash
                # being recorded (and the witness cannot witness
                # itself); see docs/reliability.md.
                pass
        for notify in observers:
            try:
                notify(crash)
            except Exception:  # gsn-lint: disable=GSN601
                pass
        return crash

    # -- test support --------------------------------------------------------

    @contextmanager
    def expected(self) -> Iterator[None]:
        """Crashes recorded inside this context are intentional (tests
        exercising the supervision path) and do not fail the suite."""
        with self._mutex:
            self._expected_depth += 1
        try:
            yield
        finally:
            with self._mutex:
                self._expected_depth -= 1

    def unexpected(self) -> List[ThreadCrash]:
        with self._mutex:
            return [c for c in self.crashes if not c.expected]

    def clear(self) -> None:
        with self._mutex:
            self.crashes = []

    # -- observability -------------------------------------------------------

    def counts_by_owner(self) -> Dict[str, int]:
        with self._mutex:
            out: Dict[str, int] = {}
            for crash in self.crashes:
                out[crash.owner] = out.get(crash.owner, 0) + 1
            return out

    def status(self) -> dict:
        with self._mutex:
            crashes = list(self.crashes)
        return {
            "installed": self.installed,
            "crashes": len(crashes),
            "unexpected": sum(1 for c in crashes if not c.expected),
            "by_owner": self.counts_by_owner(),
            "last": crashes[-1].render() if crashes else None,
        }


#: The top armed witness (kept by :mod:`repro.analysis.witness`).
_active: Optional[CrashWitness] = None


def active() -> Optional[CrashWitness]:
    return _active
