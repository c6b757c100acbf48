"""Delta-maintained window relations (the incremental hot path's core).

The legacy pipeline re-materializes every window into a fresh
:class:`~repro.sqlengine.relation.Relation` on *every* trigger — an
O(window) rebuild per arrival. This module keeps one relation per window
alive instead: a ring buffer of pre-flattened row tuples that the window
updates in place on append/expire, so pipeline step 2 ("select each
source's window contents and unnest them into flat relations") becomes a
zero-copy view of state that already exists.

Windows publish three events (:class:`WindowObserver`): a batch of
elements admitted at the right edge together with the elements that
admission pushed out of the oldest edge, one element expired from the
oldest edge, or a bulk reset (clear, or a time window repairing itself
after out-of-order arrivals). :class:`WindowRelation` translates those
into row-level deltas and forwards them to row listeners — the
incremental-aggregate accumulators of :mod:`repro.sqlengine.incremental`.

Order inside a batch (``extended(appended, evicted)``, on both
protocols): a window evicts only once it is full, and from then on every
admission is preceded by exactly one eviction. So the window applied the
first ``len(appended) - len(evicted)`` appends on their own and then
``evicted[j]`` just before the append paired with it. :func:`in_window_order`
replays a batch in that order; an order-dependent consumer (extremum
rescans, poisoning) follows it to match per-element delivery.

Thread-safety: a ``WindowRelation`` has no lock of its own; it is always
mutated from inside its window's notification calls, which the owning
:class:`~repro.vsensor.input_manager.SourceRuntime` serializes under its
per-source lock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.sqlengine.relation import Relation
from repro.streams.element import StreamElement


_T = TypeVar("_T")


def in_window_order(appended: Sequence[_T], evicted: Sequence[_T]
                    ) -> Iterator[Tuple[Optional[_T], _T]]:
    """One admitted batch as ``(evicted or None, appended)`` steps, in
    the order the window applied them (see the module docstring)."""
    lead = len(appended) - len(evicted)
    for new in appended[:lead]:
        yield None, new
    yield from zip(evicted, appended[lead:])


class WindowObserver:
    """Protocol for objects tracking a window's element-level deltas.

    Windows guarantee that between resets, evictions happen strictly in
    FIFO order (the evicted element is always the oldest retained one),
    which is what lets observers mirror the window with a ring buffer.
    Windows call :meth:`window_extended`, :meth:`window_evicted` and
    :meth:`window_reset`; an observer that only cares about single
    elements implements :meth:`window_appended` and inherits the replay.
    """

    def window_extended(self, appended: Sequence[StreamElement],
                        evicted: Sequence[StreamElement]) -> None:
        """``appended`` entered at the right edge, pushing ``evicted``
        out of the oldest edge. The default replays the batch element
        by element in window order."""
        for old, new in in_window_order(appended, evicted):
            if old is not None:
                self.window_evicted(old)
            self.window_appended(new)

    def window_appended(self, element: StreamElement) -> None:
        """``element`` entered at the window's right (newest) edge."""

    def window_evicted(self, element: StreamElement) -> None:
        """``element`` left the window from the oldest edge."""

    def window_reset(self, retained: Sequence[StreamElement]) -> None:
        """Bulk change: the window now holds exactly ``retained``."""


class RowListener:
    """Row-level delta consumer fed by a :class:`WindowRelation`."""

    def rows_extended(self, appended: Sequence[Tuple[Any, ...]],
                      evicted: Sequence[Tuple[Any, ...]]) -> None:
        """``appended`` joined the relation, pushing ``evicted`` (the
        oldest rows) out. The default replays row by row in window
        order."""
        for old, new in in_window_order(appended, evicted):
            if old is not None:
                self.row_evicted(old)
            self.row_appended(new)

    def row_appended(self, row: Tuple[Any, ...]) -> None:
        """``row`` was appended to the materialized relation."""

    def row_evicted(self, row: Tuple[Any, ...]) -> None:
        """``row`` (the oldest) was removed from the relation."""

    def rows_reset(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        """The relation was rebuilt and now holds exactly ``rows``."""


class WindowRelation(Relation, WindowObserver):
    """A live, columnar-schema relation mirroring one window's contents.

    It *is* a :class:`Relation` — ``columns`` are the wrapper schema's
    field names plus ``timed`` and ``rows`` hold the flattened tuples —
    but ``rows`` is a deque maintained incrementally: O(1) append at the
    right edge, O(1) eviction at the left, zero per-trigger rebuild. The
    SQL executor only ever iterates catalog relations, so the deque is a
    drop-in backing store.
    """

    __slots__ = ("field_names", "listeners")

    def __init__(self, field_names: Sequence[str]) -> None:
        super().__init__(tuple(field_names) + ("timed",))
        # Replace the list backing store with a ring buffer; every other
        # Relation affordance (iteration, len, column access) still works.
        self.rows = deque()  # type: ignore[assignment]
        self.field_names: Tuple[str, ...] = tuple(
            name.lower() for name in field_names
        )
        self.listeners: List[RowListener] = []

    # -- row listeners -----------------------------------------------------

    def add_listener(self, listener: RowListener) -> None:
        self.listeners.append(listener)

    def remove_listener(self, listener: RowListener) -> None:
        try:
            self.listeners.remove(listener)
        except ValueError:
            pass

    # -- WindowObserver protocol -------------------------------------------

    def window_extended(self, appended: Sequence[StreamElement],
                        evicted: Sequence[StreamElement]) -> None:
        fields = self.field_names
        rows = self.rows
        new_rows = [element.as_tuple(fields) for element in appended]
        rows.extend(new_rows)
        # The evicted rows are the head of (rows + batch), like the
        # window's own overflow.
        old_rows = [rows.popleft()  # type: ignore[attr-defined]
                    for __ in evicted]
        for listener in self.listeners:
            listener.rows_extended(new_rows, old_rows)

    def window_appended(self, element: StreamElement) -> None:
        self.window_extended((element,), ())

    def window_evicted(self, element: StreamElement) -> None:
        if not self.rows:
            return
        row = self.rows.popleft()  # type: ignore[attr-defined]
        for listener in self.listeners:
            listener.row_evicted(row)

    def window_reset(self, retained: Sequence[StreamElement]) -> None:
        fields = self.field_names
        self.rows = deque(  # type: ignore[assignment]
            element.as_tuple(fields) for element in retained
        )
        for listener in self.listeners:
            listener.rows_reset(self.rows)

    # -- views -------------------------------------------------------------

    def snapshot(self) -> Relation:
        """A frozen point-in-time copy (used when pipelines run on pool
        threads, where the live view could mutate mid-query)."""
        return Relation.adopt(self.columns, list(self.rows))

    def pretty(self, limit: int = 20) -> str:
        # Relation.pretty slices rows; deques don't slice.
        clone = self.snapshot()
        return clone.pretty(limit)

    def __repr__(self) -> str:
        return (f"WindowRelation({list(self.columns)}, "
                f"{len(self.rows)} rows)")
