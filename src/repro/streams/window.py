"""Count- and time-based windows over data streams.

Paper, Section 3: "a windowing mechanism which allows the user to define
count- or time-based windows on data streams". Windows maintain the set of
stream elements visible to the per-source query of pipeline step 2.

Windows broadcast element-level deltas to
:class:`~repro.streams.materialized.WindowObserver`\\ s (an admitted
batch with the evictions it caused, FIFO eviction on expiry, bulk
reset) and carry a monotonically increasing ``version`` that bumps on
every content change — the dirty-tracking signal the incremental
pipeline uses to skip re-executing per-source queries for windows that
did not move.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.exceptions import WindowError
from repro.gsntime.duration import parse_window_spec
from repro.streams.element import StreamElement
from repro.streams.materialized import WindowObserver


class SlidingWindow(abc.ABC):
    """Common interface for stream windows.

    Elements enter via :meth:`extend` (:meth:`append` is a batch of
    one); :meth:`contents` returns the elements currently inside the
    window, oldest first. Time windows need the query time to expire
    elements, so ``contents`` takes ``now``.
    """

    def __init__(self) -> None:
        #: Bumped on every content change (append, evict, reset). Cached
        #: derivations of the window (temporary relations, accumulators)
        #: are valid exactly as long as the version they were built at.
        self.version = 0
        self._observers: List[WindowObserver] = []

    @abc.abstractmethod
    def extend(self, elements: Sequence[StreamElement]) -> None:
        """Admit a batch of elements, oldest first, leaving exactly the
        state repeated :meth:`append` would: same contents, same
        ``version``, observers told once. Every element must already
        carry a timestamp; if one does not, :class:`WindowError` is
        raised before anything changes."""

    def append(self, element: StreamElement) -> None:
        """Admit a new element (must already carry a timestamp)."""
        self.extend((element,))

    @abc.abstractmethod
    def contents(self, now: Optional[int] = None) -> List[StreamElement]:
        """Elements currently in the window, oldest first."""

    @abc.abstractmethod
    def spec(self) -> str:
        """The descriptor string this window was built from."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of elements currently held — O(1), never materializes
        the contents list."""

    def synchronize(self, now: Optional[int] = None) -> bool:
        """Apply any pending expiry for query time ``now``.

        Returns ``True`` when, afterwards, the retained elements are
        exactly ``contents(now)`` — i.e. a materialized mirror of the
        retained set is a faithful window relation. Count windows always
        are; time windows are unless ``now`` lies before the newest
        element's timestamp (elements "from the future" are retained but
        outside the queried span).
        """
        return True

    def clear(self) -> None:
        """Drop all buffered elements."""
        raise NotImplementedError

    # -- observers ---------------------------------------------------------

    def add_observer(self, observer: WindowObserver) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: WindowObserver) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # Observer dispatch runs under the owning SourceRuntime's lock by
    # design: observers are the window's materialized mirrors (delta
    # relations, running aggregates) and MUST see every delta in the
    # exact order the window applies it, atomically with the window's
    # own mutation. Observers are internal, non-blocking, and never
    # take locks of their own (see docs/concurrency.md).

    def _notify_extend(self, appended: Sequence[StreamElement],
                       evicted: Sequence[StreamElement]) -> None:
        self.version += len(appended) + len(evicted)
        for observer in self._observers:
            observer.window_extended(appended, evicted)  # gsn-lint: disable=GSN503

    def _notify_evict(self, element: StreamElement) -> None:
        self.version += 1
        for observer in self._observers:
            observer.window_evicted(element)  # gsn-lint: disable=GSN503

    def _notify_reset(self, retained: List[StreamElement]) -> None:
        self.version += 1
        for observer in self._observers:
            observer.window_reset(retained)  # gsn-lint: disable=GSN503


class CountWindow(SlidingWindow):
    """Keeps the last ``size`` elements regardless of their timestamps."""

    def __init__(self, size: int) -> None:
        super().__init__()
        if size <= 0:
            raise WindowError("count windows must hold at least one element")
        self.size = size
        self._elements: Deque[StreamElement] = deque()

    def extend(self, elements: Sequence[StreamElement]) -> None:
        _require_stamped(elements)
        held = self._elements
        held.extend(elements)
        # The overflow is the head of (held + batch): what per-element
        # admission would have evicted, in the order it would have — a
        # batch longer than the window evicts its own head.
        evicted = [held.popleft() for __ in range(len(held) - self.size)]
        self._notify_extend(elements, evicted)

    def contents(self, now: Optional[int] = None) -> List[StreamElement]:
        return list(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def clear(self) -> None:
        self._elements.clear()
        self._notify_reset([])

    def spec(self) -> str:
        return str(self.size)

    def __repr__(self) -> str:
        return f"CountWindow(size={self.size}, held={len(self._elements)})"


class TimeWindow(SlidingWindow):
    """Keeps elements whose timestamp lies within the trailing time span.

    An element with timestamp ``t`` is in the window at query time ``now``
    iff ``now - span < t <= now``. Out-of-order arrivals are tolerated: the
    window keeps elements sorted by insertion but expiry is purely
    timestamp-driven.
    """

    def __init__(self, span_millis: int) -> None:
        super().__init__()
        if span_millis <= 0:
            raise WindowError("time windows must span a positive duration")
        self.span_millis = span_millis
        self._elements: Deque[StreamElement] = deque()
        self._latest_seen: int = -1
        self._monotonic = True  # False once an out-of-order element arrives

    def extend(self, elements: Sequence[StreamElement]) -> None:
        _require_stamped(elements)
        held = self._elements
        for element in elements:
            timed = element.timed
            if held and timed < held[-1].timed:
                self._monotonic = False
            held.append(element)
            if timed > self._latest_seen:
                self._latest_seen = timed
        # Expiry is query-time driven (_expire), never on admission.
        self._notify_extend(elements, ())

    def _expire(self, now: int) -> None:
        cutoff = now - self.span_millis
        # Elements are usually in timestamp order; pop expired ones from
        # the left. A full rebuild only happens after out-of-order
        # arrivals, where stale elements can hide mid-deque.
        while self._elements and self._elements[0].timed <= cutoff:
            evicted = self._elements.popleft()
            self._notify_evict(evicted)
        if not self._monotonic and any(
            e.timed <= cutoff for e in self._elements
        ):
            self._elements = deque(
                e for e in self._elements if e.timed > cutoff
            )
            self._notify_reset(list(self._elements))

    def synchronize(self, now: Optional[int] = None) -> bool:
        if self._latest_seen < 0:
            return True
        reference = self._latest_seen if now is None else now
        self._expire(reference)
        # After expiry every retained element has timed > cutoff; the
        # retained set equals contents(now) unless some element is newer
        # than the reference (an out-of-order "future" stamp).
        return reference >= self._latest_seen

    def contents(self, now: Optional[int] = None) -> List[StreamElement]:
        reference = self._latest_seen if now is None else now
        if reference < 0:
            return []
        self._expire(reference)
        cutoff = reference - self.span_millis
        if self._monotonic and reference >= self._latest_seen:
            # Everything retained lies in (cutoff, latest] ⊆ (cutoff, ref].
            return list(self._elements)
        return [e for e in self._elements
                if cutoff < e.timed <= reference]

    def __len__(self) -> int:
        # Expire against the newest seen timestamp, then count what is
        # left — O(1) plus expiry work that had to happen anyway.
        if self._latest_seen >= 0:
            self._expire(self._latest_seen)
        return len(self._elements)

    def clear(self) -> None:
        self._elements.clear()
        self._latest_seen = -1
        self._monotonic = True
        self._notify_reset([])

    def spec(self) -> str:
        from repro.gsntime.duration import format_duration
        return format_duration(self.span_millis)

    def __repr__(self) -> str:
        return (f"TimeWindow(span={self.span_millis}ms, "
                f"held={len(self._elements)})")


def _require_stamped(elements: Sequence[StreamElement]) -> None:
    for element in elements:
        if element.timed is None:
            raise WindowError("cannot window an unstamped element")


def make_window(spec: str) -> SlidingWindow:
    """Build a window from a descriptor attribute.

    ``"10"`` → a 10-element :class:`CountWindow`; ``"10s"`` → a 10-second
    :class:`TimeWindow` (GSN's ``storage-size`` convention).
    """
    try:
        kind, amount = parse_window_spec(spec)
    except Exception as exc:
        raise WindowError(f"bad window spec {spec!r}: {exc}") from exc
    if kind == "count":
        return CountWindow(amount)
    return TimeWindow(amount)
