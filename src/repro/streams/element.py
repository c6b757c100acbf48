"""Stream elements: the timestamped tuples that flow through GSN.

Section 3 of the paper: "a data stream is a sequence of timestamped tuples"
whose order derives from the timestamps, with implicit timestamping on
arrival. A :class:`StreamElement` is immutable; transformations produce new
elements so that the "temporal history of data stream elements" can always
be traced.
"""

from __future__ import annotations

from typing import (
    Any, Dict, ItemsView, Iterator, Mapping, Optional, Sequence, Tuple,
)

from repro.exceptions import SchemaError
from repro.streams.schema import TIMED_FIELD, StreamSchema


class StreamElement:
    """One timestamped tuple.

    Attributes
    ----------
    timed:
        The element's primary timestamp in epoch milliseconds, or ``None``
        if the producer did not stamp it (the container will, on arrival).
    arrival_time:
        Reception time stamped by the container (paper: "implicit
        timestamping of tuples upon arrival"). ``None`` until received.
    """

    __slots__ = ("_values", "_timed", "_arrival_time", "_producer",
                 "_trace_id")

    def __init__(self, values: Mapping[str, Any], timed: Optional[int] = None,
                 arrival_time: Optional[int] = None,
                 producer: str = "", trace_id: Optional[str] = None) -> None:
        if timed is not None and timed < 0:
            raise SchemaError("timestamps cannot be negative")
        # Normalised once, here; never mutated afterwards, so derived
        # elements (``with_*``, ``received``) share this dict.
        lowered = {key.lower(): value for key, value in values.items()}
        lowered.pop(TIMED_FIELD, None)
        self._values: Dict[str, Any] = lowered
        self._timed = timed
        self._arrival_time = arrival_time
        self._producer = producer
        self._trace_id = trace_id

    # -- accessors ---------------------------------------------------------

    @property
    def timed(self) -> Optional[int]:
        return self._timed

    @property
    def arrival_time(self) -> Optional[int]:
        return self._arrival_time

    @property
    def producer(self) -> str:
        """Name of the wrapper or virtual sensor that produced the element."""
        return self._producer

    @property
    def trace_id(self) -> Optional[str]:
        """Pipeline-trace id, or ``None`` when the element is untraced.

        Provenance only: not part of the payload, equality, or storage.
        """
        return self._trace_id

    @property
    def values(self) -> Dict[str, Any]:
        """A copy of the payload (without the implicit timestamp)."""
        return dict(self._values)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(self._values)

    def __getitem__(self, name: str) -> Any:
        lowered = name.lower()
        if lowered == TIMED_FIELD:
            return self._timed
        try:
            return self._values[lowered]
        except KeyError:
            raise SchemaError(f"element has no field {name!r}") from None

    def get(self, name: str, default: Any = None) -> Any:
        lowered = name.lower()
        if lowered == TIMED_FIELD:
            return self._timed if self._timed is not None else default
        return self._values.get(lowered, default)

    def __contains__(self, name: object) -> bool:
        return (isinstance(name, str)
                and (name.lower() in self._values or name.lower() == TIMED_FIELD))

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> ItemsView[str, Any]:
        """A read-only view of the payload's ``(name, value)`` pairs."""
        return self._values.items()

    # -- derivation --------------------------------------------------------

    def _derive(self, timed: Optional[int], arrival_time: Optional[int],
                producer: str, trace_id: Optional[str]) -> "StreamElement":
        """A new element over the *same* payload dict (it is immutable
        and already normalised) with the four metadata slots replaced."""
        if timed is not None and timed < 0:
            raise SchemaError("timestamps cannot be negative")
        clone = StreamElement.__new__(StreamElement)
        clone._values = self._values
        clone._timed = timed
        clone._arrival_time = arrival_time
        clone._producer = producer
        clone._trace_id = trace_id
        return clone

    def with_timestamp(self, timed: int) -> "StreamElement":
        """A copy stamped with ``timed`` (used for step 1 of the pipeline)."""
        return self._derive(timed, self._arrival_time, self._producer,
                            self._trace_id)

    def with_arrival(self, arrival_time: int) -> "StreamElement":
        """A copy carrying the container reception time."""
        return self._derive(self._timed, arrival_time, self._producer,
                            self._trace_id)

    def with_producer(self, producer: str) -> "StreamElement":
        return self._derive(self._timed, self._arrival_time, producer,
                            self._trace_id)

    def with_trace(self, trace_id: Optional[str]) -> "StreamElement":
        """A copy stamped with a pipeline-trace id."""
        return self._derive(self._timed, self._arrival_time,
                            self._producer, trace_id)

    def received(self, now: int,
                 trace_id: Optional[str] = None) -> "StreamElement":
        """The element as the container admits it (pipeline step 1), in
        one derivation: ``now`` is the reception time and, unless the
        producer stamped the element, its timestamp; ``trace_id`` applies
        unless an upstream hop already chose one."""
        return self._derive(
            now if self._timed is None else self._timed, now,
            self._producer,
            trace_id if self._trace_id is None else self._trace_id)

    def with_values(self, **updates: Any) -> "StreamElement":
        """A copy with some payload fields replaced."""
        merged = dict(self._values)
        merged.update({k.lower(): v for k, v in updates.items()})
        return StreamElement(merged, timed=self._timed,
                             arrival_time=self._arrival_time,
                             producer=self._producer,
                             trace_id=self._trace_id)

    # -- conversion --------------------------------------------------------

    def as_tuple(self, fields: Sequence[str]) -> Tuple[Any, ...]:
        """The positional row ``(*fields, timed)`` the window relations
        hold; ``fields`` are schema names, already lower-case (``timed``
        is reserved, so none of them is the timestamp)."""
        return (*map(self._values.get, fields), self._timed)

    def as_row(self, schema: Optional[StreamSchema] = None) -> Dict[str, Any]:
        """Flatten to a relational row including the ``timed`` column.

        This is the "unnesting into flat relations" of pipeline step 2:
        window contents become rows the SQL engine can process. When a
        schema is given the row is restricted and validated against it.
        """
        if schema is None:
            row = dict(self._values)
        else:
            row = schema.validate(self._values)
        row[TIMED_FIELD] = self._timed
        return row

    def payload_size(self) -> int:
        """Approximate payload size in bytes (used by the benchmarks to
        report stream-element sizes the way Figure 3 does)."""
        total = 0
        for value in self._values.values():
            if value is None:
                continue
            if isinstance(value, (bytes, bytearray)):
                total += len(value)
            elif isinstance(value, str):
                total += len(value.encode("utf-8"))
            elif isinstance(value, bool):
                total += 1
            elif isinstance(value, int):
                total += 8
            elif isinstance(value, float):
                total += 8
            else:
                total += len(repr(value))
        return total

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamElement):
            return NotImplemented
        return (self._timed == other._timed
                and self._values == other._values)

    def __hash__(self) -> int:
        return hash((self._timed, tuple(sorted(
            (k, v) for k, v in self._values.items()
            if not isinstance(v, (bytes, bytearray))
        ))))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={_short(v)}" for k, v in self._values.items())
        return f"StreamElement(timed={self._timed}, {pairs})"


def _short(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)} bytes>"
    text = repr(value)
    return text if len(text) <= 32 else text[:29] + "..."
