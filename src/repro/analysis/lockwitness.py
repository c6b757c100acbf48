"""Runtime lock-order witness.

The static pass (:mod:`repro.analysis.lockgraph`) proves properties of
the *source*; this module checks the *process*. While armed, every lock
the runtime creates through :func:`repro.concurrency.new_lock` becomes a
:class:`WitnessedLock` that records which locks each thread already
holds at every acquisition.  Each (held → acquired) pair becomes an edge
in an observed acquisition-order graph, keyed by the same class-
qualified lock names the static analyzer uses, so the two worlds can be
diffed directly.

Violations:

- *self-deadlock* — re-acquiring a non-reentrant lock the thread already
  holds.  Always raises (proceeding would hang the process).
- *inversion* — acquiring ``A`` while holding ``B`` when the sanctioned
  order (:data:`repro.concurrency.LOCK_ORDER`) or a previously observed
  edge says ``A`` must come first.  Raises in strict mode, otherwise the
  violation is recorded for the end-of-run report.

Two instances of the *same* class's lock (say, two ``Counter._lock``\\ s)
carry the same name; holding both at once is not ordered by the naming
scheme and is therefore not recorded as an edge (it would read as a
self-cycle).  Re-acquiring the *same instance* is still caught.

Off by default: until the witness is armed
(:mod:`repro.analysis.witness`), ``new_lock`` hands out plain
``threading.Lock`` objects and this module costs nothing.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import concurrency
from repro.analysis.witness import LockFactory, Witness, plain_lock

Edge = Tuple[str, str]


class LockOrderViolation(AssertionError):
    """A thread acquired locks against the sanctioned/observed order."""


class WitnessedLock:
    """Drop-in ``threading.Lock``/``RLock`` that reports to a witness."""

    __slots__ = ("name", "reentrant", "_lock", "_witness")

    def __init__(self, name: str, reentrant: bool,
                 witness: "LockWitness", lock: Any) -> None:
        self.name = name
        self.reentrant = reentrant
        self._lock = lock
        self._witness = witness

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._witness.before_acquire(self)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._witness.after_acquire(self)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._witness.after_release(self)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:
        return f"<WitnessedLock {self.name!r}>"


class LockWitness(Witness):
    """Records acquisition order per thread and checks it for cycles."""

    def __init__(self, strict: bool = True,
                 declared: Optional[Tuple[Edge, ...]] = None) -> None:
        self.strict = strict
        self.declared: Set[Edge] = set(
            concurrency.LOCK_ORDER if declared is None else declared
        )
        self._mutex = threading.Lock()
        self._held = threading.local()  # per-thread [(name, lock id)]
        self.edges: Dict[Edge, int] = {}   # observed (outer, inner) -> count
        self.violations: List[str] = []
        self.acquisitions = 0

    # -- bookkeeping ---------------------------------------------------------

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def make_lock(self, name: str, reentrant: bool,
                  inner: LockFactory = plain_lock) -> WitnessedLock:
        """A witnessed lock around the one ``inner`` makes."""
        return WitnessedLock(name, reentrant, self, inner(name, reentrant))

    def lock_factory(self, inner: LockFactory) -> LockFactory:
        return lambda name, reentrant=False: self.make_lock(
            name, reentrant, inner)

    # -- acquisition hooks ---------------------------------------------------

    def before_acquire(self, lock: WitnessedLock) -> None:
        stack = self._stack()
        for held_name, held_id in stack:
            if held_id == id(lock) and not lock.reentrant:
                # Proceeding would block this thread forever; always raise.
                raise LockOrderViolation(
                    f"self-deadlock: thread already holds {lock.name!r} "
                    f"(non-reentrant) and is acquiring it again"
                )
        for held_name, held_id in stack:
            if held_name == lock.name:
                continue  # sibling instances of one class: unordered
            edge = (held_name, lock.name)
            reverse = (lock.name, held_name)
            if reverse in self.declared or reverse in self.edges:
                origin = "declared" if reverse in self.declared \
                    else "observed"
                message = (
                    f"lock-order inversion: acquiring {lock.name!r} while "
                    f"holding {held_name!r}, but the {origin} order is "
                    f"{lock.name} < {held_name}"
                )
                self._violate(message)
            with self._mutex:
                self.edges[edge] = self.edges.get(edge, 0) + 1

    def after_acquire(self, lock: WitnessedLock) -> None:
        self._stack().append((lock.name, id(lock)))
        with self._mutex:
            self.acquisitions += 1

    def after_release(self, lock: WitnessedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][1] == id(lock):
                del stack[index]
                return

    def _violate(self, message: str) -> None:
        with self._mutex:
            self.violations.append(message)
        if self.strict:
            raise LockOrderViolation(message)

    # -- reporting -----------------------------------------------------------

    def check_acyclic(self) -> List[List[str]]:
        """Cycles in the observed ∪ declared order graph (ideally none)."""
        graph: Dict[str, Set[str]] = {}
        for before, after in list(self.edges) + sorted(self.declared):
            graph.setdefault(before, set()).add(after)
            graph.setdefault(after, set())
        cycles: List[List[str]] = []
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        path: List[str] = []

        def visit(node: str) -> None:
            color[node] = GRAY
            path.append(node)
            for succ in sorted(graph[node]):
                if color[succ] == GRAY:
                    cycles.append(path[path.index(succ):] + [succ])
                elif color[succ] == WHITE:
                    visit(succ)
            path.pop()
            color[node] = BLACK

        for node in sorted(graph):
            if color[node] == WHITE:
                visit(node)
        return cycles

    def status(self) -> dict:
        return {
            "acquisitions": self.acquisitions,
            "edges": len(self.edges),
            "violations": list(self.violations),
            "strict": self.strict,
        }


#: The top armed witness (kept by :mod:`repro.analysis.witness`).
_active: Optional[LockWitness] = None


def active() -> Optional[LockWitness]:
    return _active
