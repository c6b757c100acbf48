"""One retained-row history for input windows and stream tables.

Paper, Section 3: a source's ``storage-size`` window and the output's
history ``size`` say the same thing — how much of a timestamped stream
the container keeps. :class:`RowHistory` is that one directive: a
:class:`~repro.sqlengine.relation.Relation` whose ``rows`` are the
retained positional tuples ``(fields..., timed)`` in arrival order,
under a count, time or unbounded :class:`RetentionPolicy`. A source
runtime holds one as its window; a stream table holds one as its rows.

**The one rule.** A history has a *horizon*. It moves only forward, and
only when the owner calls :meth:`RowHistory.advance`: a stream table
advances it to each appended stamp, an input window to the query's
``now`` at each read. Time retention evicts every row stamped at or
before ``horizon - span``, wherever it sits: a row already behind it is
never retained, the oldest rows leave from the left as it moves, and a
full filter runs only while a late row (one stamped before a row ahead
of it) is held. A read at ``now`` returns the rows in
``(now - span, now]``. Counting never moves the horizon. Count
retention keeps the last N rows, whatever their stamps.

Listeners (:class:`RowListener`) hear every change in the order it is
applied: a batch appended at the right edge with the rows it pushed out
of the left (``rows_extended``), one row expired from the left
(``row_evicted``), or a bulk change (``rows_reset``). The delta states
of :mod:`repro.sqlengine.incremental` mirror a window through them.

Order inside a batch (``rows_extended(appended, evicted)``): a count
history evicts only once it is full, and from then on every append is
preceded by exactly one eviction. So the history applied the first
``len(appended) - len(evicted)`` appends on their own and then
``evicted[j]`` just before the append paired with it.
:func:`in_window_order` replays a batch in that order; an
order-dependent consumer (extremum rescans, poisoning) follows it to
match per-row delivery.

Thread-safety: a history has no lock of its own. Its owner serializes
every call under the owner's lock (``SourceRuntime._lock``, or the
stream table's lock — for SQLite the connection lock, so the durable
write and the retained rows change in one critical section), and
listener dispatch runs inside that critical section by design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import StorageError
from repro.gsntime.duration import parse_window_spec
from repro.sqlengine.relation import Relation

Row = Tuple[Any, ...]
_T = TypeVar("_T")


@dataclass(frozen=True)
class RetentionPolicy:
    """How much of a stream a history keeps.

    ``kind`` is ``"count"`` (keep the last N), ``"time"`` (keep the last
    span milliseconds, judged against row stamps) or ``"all"``.
    """

    kind: str
    amount: int = 0

    @classmethod
    def parse(cls, spec: Optional[str]) -> "RetentionPolicy":
        if spec is None or spec.strip().lower() in ("", "all", "unbounded"):
            return cls("all")
        kind, amount = parse_window_spec(spec)
        return cls(kind, amount)

    def __post_init__(self) -> None:
        if self.kind not in ("count", "time", "all"):
            raise StorageError(f"unknown retention kind {self.kind!r}")
        if self.kind != "all" and self.amount <= 0:
            raise StorageError("retention amount must be positive")


def in_window_order(appended: Sequence[_T], evicted: Sequence[_T]
                    ) -> Iterator[Tuple[Optional[_T], _T]]:
    """One admitted batch as ``(evicted or None, appended)`` steps, in
    the order the history applied them (see the module docstring)."""
    lead = len(appended) - len(evicted)
    for new in appended[:lead]:
        yield None, new
    yield from zip(evicted, appended[lead:])


class RowListener:
    """Row-level delta consumer fed by a :class:`RowHistory`.

    Between resets, evictions are strictly FIFO (the evicted row is
    always the oldest retained one), which is what lets a listener
    mirror the history with a ring buffer.
    """

    def rows_extended(self, appended: Sequence[Row],
                      evicted: Sequence[Row]) -> None:
        """``appended`` joined the history, pushing ``evicted`` (the
        oldest rows) out. The default replays row by row in window
        order."""
        for old, new in in_window_order(appended, evicted):
            if old is not None:
                self.row_evicted(old)
            self.row_appended(new)

    def row_appended(self, row: Row) -> None:
        """``row`` was appended at the right (newest) edge."""

    def row_evicted(self, row: Row) -> None:
        """``row`` (the oldest) was removed from the history."""

    def rows_reset(self, rows: Sequence[Row]) -> None:
        """Bulk change: the history now holds exactly ``rows``."""


class RowHistory(Relation):
    """The retained rows of one stream, as a live relation.

    ``columns`` are the field names plus ``timed``; ``rows`` is a deque
    changed in place — O(1) at either edge — so the executor, the
    compiled pipeline and the delta states read it without a copy.
    """

    __slots__ = ("retention", "version", "listeners", "horizon",
                 "_newest", "_late")

    def __init__(self, fields: Sequence[str],
                 retention: RetentionPolicy) -> None:
        super().__init__(tuple(fields) + ("timed",))
        self.rows = deque()  # type: ignore[assignment]
        self.retention = retention
        #: Bumped on every change of ``rows``: a derivation (a cached
        #: temporary, an accumulator) is valid exactly as long as the
        #: version it was built at.
        self.version = 0
        self.listeners: List[RowListener] = []
        self.horizon: Optional[int] = None
        # Time retention: an upper bound on the retained stamps, and
        # whether a late row may be held (rows out of stamp order).
        self._newest: Optional[int] = None
        self._late = False

    def add_listener(self, listener: RowListener) -> None:
        self.listeners.append(listener)

    def remove_listener(self, listener: RowListener) -> None:
        try:
            self.listeners.remove(listener)
        except ValueError:
            pass

    # -- changes -------------------------------------------------------------
    #
    # Listener dispatch runs under the owner's lock by design: listeners
    # are the history's own mirrors (delta states), must see every change
    # in order and atomically with it, and never block or take locks of
    # their own (see docs/concurrency.md).

    def append(self, row: Sequence[Any]) -> None:
        self.extend((tuple(row),))

    def extend(self, rows: Sequence[Row]) -> None:
        """Admit a batch of rows, oldest first, leaving exactly the state
        appending them one at a time would; listeners hear it once.
        Count retention evicts the overflow (a batch longer than the
        history evicts its own head); time retention drops the rows
        already behind the horizon."""
        held = self.rows
        kind, amount = self.retention.kind, self.retention.amount
        evicted: List[Row] = []
        if kind == "time":
            if self.horizon is not None:
                cutoff = self.horizon - amount
                rows = [row for row in rows if row[-1] > cutoff]
            last = held[-1][-1] if held else None
            for row in rows:
                stamp = row[-1]
                if last is not None and stamp < last:
                    self._late = True
                if self._newest is None or stamp > self._newest:
                    self._newest = stamp
                last = stamp
            held.extend(rows)
        else:
            held.extend(rows)
            if kind == "count":
                while len(held) > amount:
                    evicted.append(held.popleft())  # type: ignore[attr-defined]
        if rows:
            self.version += len(rows) + len(evicted)
            for listener in self.listeners:
                listener.rows_extended(rows, evicted)  # gsn-lint: disable=GSN503

    def advance(self, horizon: int) -> None:
        """Move the horizon forward to ``horizon`` (never back) and evict
        what time retention no longer keeps."""
        if self.horizon is not None and horizon <= self.horizon:
            return
        self.horizon = horizon
        if self.retention.kind != "time":
            return
        cutoff = horizon - self.retention.amount
        rows = self.rows
        while rows and rows[0][-1] <= cutoff:
            row = rows.popleft()  # type: ignore[attr-defined]
            self.version += 1
            for listener in self.listeners:
                listener.row_evicted(row)  # gsn-lint: disable=GSN503
        if self._late:
            kept = [row for row in rows if row[-1] > cutoff]
            self._late = any(a[-1] > b[-1] for a, b in zip(kept, kept[1:]))
            if len(kept) < len(rows):
                rows.clear()
                rows.extend(kept)
                self.version += 1
                for listener in self.listeners:
                    listener.rows_reset(rows)  # gsn-lint: disable=GSN503

    # -- reads ---------------------------------------------------------------

    def read(self, now: Optional[int] = None) -> Relation:
        """A copy of what a read at ``now`` sees: for time retention the
        rows in ``(now - span, now]``, otherwise (or without ``now``)
        every retained row. Never moves the horizon."""
        rows = list(self.rows)
        if now is not None and self.retention.kind == "time":
            cutoff = now - self.retention.amount
            rows = [row for row in rows if cutoff < row[-1] <= now]
        return Relation.adopt(self.columns, rows)

    def view(self, now: Optional[int]) -> Tuple[Relation, bool]:
        """Read at ``now`` as an input window does: advance the horizon
        to ``now``, then return ``(relation, live)``. ``live`` is True
        when the read is every retained row — always under count
        retention, and under time retention when no retained row is
        stamped after ``now`` — and the relation is then this history
        itself; otherwise it is the filtered copy :meth:`read` makes."""
        if now is None:
            return self, True
        self.advance(now)
        if self._newest is not None and self._newest > now:
            if any(row[-1] > now for row in self.rows):
                return self.read(now), False
            self._newest = now
        return self, True

    def __repr__(self) -> str:
        return (f"RowHistory({list(self.columns)}, {self.retention.kind} "
                f"{self.retention.amount}, {len(self.rows)} rows)")
