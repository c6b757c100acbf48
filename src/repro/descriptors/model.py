"""Dataclass model of the virtual-sensor deployment descriptor.

Field names follow the XML attributes of the paper's Figure 1:
``pool-size``, ``permanent-storage``, ``sampling-rate``, ``storage-size``,
``disconnect-buffer``, and the ``<address wrapper=...>`` element with its
key/value predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.streams.schema import StreamSchema


@dataclass(frozen=True)
class LifeCycleConfig:
    """``<life-cycle pool-size="10" max-errors="5"/>``.

    ``pool_size`` is the paper's thread-pool knob. ``max_errors`` is the
    error-handling policy: after that many *consecutive* pipeline
    failures the sensor transitions to FAILED instead of burning cycles
    on a broken source (0 disables auto-failing).
    """

    pool_size: int = 1
    max_errors: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError("pool-size must be at least 1")
        if self.max_errors < 0:
            raise ValidationError("max-errors cannot be negative")


@dataclass(frozen=True)
class StorageConfig:
    """``<storage permanent-storage="true" size="10s"/>``.

    ``history_size`` bounds how much of the output stream is kept; it is a
    window spec (``"10s"`` time-based, ``"10"`` count-based, ``None``
    unbounded).
    """

    permanent: bool = False
    history_size: Optional[str] = None


@dataclass(frozen=True)
class AddressSpec:
    """``<address wrapper="...">`` plus its key/value predicates.

    ``wrapper`` names the wrapper implementation ("remote" pulls the
    stream from another virtual sensor through GSN — logical addressing);
    ``predicates`` either configure a local wrapper or, for remote
    addressing, select the producing virtual sensor in the directory.
    """

    wrapper: str
    predicates: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.wrapper.strip():
            raise ValidationError("address needs a wrapper name")
        object.__setattr__(self, "wrapper", self.wrapper.strip().lower())
        object.__setattr__(
            self,
            "predicates",
            {str(k).strip().lower(): str(v) for k, v in self.predicates.items()},
        )


@dataclass(frozen=True)
class StreamSourceSpec:
    """``<stream-source>``: one input of an input stream.

    Attributes mirror the descriptor: ``alias`` names the temporary
    relation the source query fills; ``sampling_rate`` in (0, 1] samples
    the raw stream; ``storage_size`` defines the window over the raw
    stream; ``disconnect_buffer`` bounds elements retained across
    disconnections; ``query`` is the SQL over the reserved ``WRAPPER``
    table.
    """

    alias: str
    address: AddressSpec
    query: str = "select * from wrapper"
    sampling_rate: float = 1.0
    storage_size: Optional[str] = None
    disconnect_buffer: int = 0
    #: Optional trigger decimation: ``"5"`` fires the pipeline on every
    #: 5th admitted element, ``"10s"`` at most every 10 seconds (by
    #: element timestamp). The window itself updates on every element.
    slide: Optional[str] = None

    def __post_init__(self) -> None:
        alias = self.alias.strip().lower()
        if not alias or not alias.isidentifier():
            raise ValidationError(f"bad stream-source alias {self.alias!r}")
        object.__setattr__(self, "alias", alias)
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValidationError("sampling-rate must be in (0, 1]")
        if self.disconnect_buffer < 0:
            raise ValidationError("disconnect-buffer cannot be negative")
        if not self.query.strip():
            raise ValidationError("stream-source needs a query")


@dataclass(frozen=True)
class InputStreamSpec:
    """``<input-stream>``: named group of sources plus the stream query.

    ``rate`` bounds the output rate of the input stream in elements per
    second (0 disables bounding), mirroring the ``rate`` attribute of
    Figure 1. ``lifetime`` bounds how long the stream stays active after
    its sensor starts ("bounding the lifetime of a data stream in order
    to reserve resources only when they are needed", paper Section 3) —
    a duration string like ``"1h"``, or ``None`` for unbounded.
    """

    name: str
    sources: Tuple[StreamSourceSpec, ...]
    query: str
    rate: float = 0.0
    lifetime: Optional[str] = None

    def __post_init__(self) -> None:
        name = self.name.strip().lower()
        if not name:
            raise ValidationError("input-stream needs a name")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValidationError(f"input-stream {name!r} has no sources")
        if self.rate < 0:
            raise ValidationError("rate cannot be negative")
        if not self.query.strip():
            raise ValidationError(f"input-stream {name!r} needs a query")
        aliases = [source.alias for source in self.sources]
        if len(set(aliases)) != len(aliases):
            raise ValidationError(
                f"duplicate source aliases in input-stream {name!r}"
            )


@dataclass(frozen=True)
class VirtualSensorDescriptor:
    """The complete deployment descriptor of one virtual sensor."""

    name: str
    output_structure: StreamSchema
    input_streams: Tuple[InputStreamSpec, ...]
    lifecycle: LifeCycleConfig = LifeCycleConfig()
    storage: StorageConfig = StorageConfig()
    addressing: Dict[str, str] = field(default_factory=dict)
    description: str = ""
    priority: int = 10
    #: Fraction of fresh elements whose pipeline runs are traced
    #: (``trace-sampling`` XML attribute). 1.0 traces everything, 0.0
    #: disables tracing; elements arriving with an upstream trace id are
    #: always traced regardless.
    trace_sampling: float = 1.0

    def __post_init__(self) -> None:
        name = self.name.strip().lower()
        if not name:
            raise ValidationError("virtual sensor needs a name")
        if not all(ch.isalnum() or ch in "-_." for ch in name):
            raise ValidationError(f"bad virtual sensor name {self.name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "input_streams", tuple(self.input_streams))
        if not self.input_streams:
            raise ValidationError(f"virtual sensor {name!r} has no input streams")
        stream_names = [stream.name for stream in self.input_streams]
        if len(set(stream_names)) != len(stream_names):
            raise ValidationError(f"duplicate input-stream names in {name!r}")
        object.__setattr__(
            self,
            "addressing",
            {str(k).strip().lower(): str(v) for k, v in self.addressing.items()},
        )
        if not 0 <= self.priority <= 20:
            raise ValidationError("priority must be within [0, 20]")
        if not 0.0 <= self.trace_sampling <= 1.0:
            raise ValidationError("trace-sampling must be in [0, 1]")

    @property
    def discovery_predicates(self) -> Dict[str, str]:
        """The key/value pairs published to the P2P directory: the
        user-defined addressing metadata plus the sensor's name."""
        merged = {"name": self.name}
        merged.update(self.addressing)
        return merged

    def source_aliases(self) -> Tuple[str, ...]:
        return tuple(
            source.alias
            for stream in self.input_streams
            for source in stream.sources
        )
