"""Input Stream Manager (ISM).

"The input stream manager ... manages the input streams and ensures
stream quality (disconnections, unexpected delays, missing values, etc.)"
(paper, Section 4). For every declared stream source the ISM owns the
wrapper instance, the sampler, the disconnect buffer, the quality monitor,
and the window; per input stream it owns the rate bounder. Whenever an
element clears those stages, the ISM triggers the virtual sensor's
processing pipeline.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency import new_lock
from repro.descriptors.model import InputStreamSpec, StreamSourceSpec
from repro.exceptions import StreamError
from repro.gsntime.clock import Clock
from repro.gsntime.duration import parse_duration, parse_window_spec
from repro.metrics.tracing import PipelineTracer, Span, new_trace_id
from repro.sqlengine.relation import Relation
from repro.streams.buffer import DisconnectBuffer
from repro.streams.element import StreamElement
from repro.streams.history import RetentionPolicy, RowHistory
from repro.streams.quality import StreamQualityMonitor
from repro.streams.sampling import ProbabilisticSampler, RateBounder
from repro.wrappers.base import Wrapper

#: Called by the ISM when an input stream fires: (stream_name, element).
TriggerCallback = Callable[[str, StreamElement], None]

#: Default window when a source declares no storage-size: latest element.
_DEFAULT_WINDOW_SPEC = "1"


class SourceRuntime:
    """Everything the ISM keeps per ``<stream-source>``."""

    def __init__(self, spec: StreamSourceSpec, wrapper: Wrapper,
                 clock: Clock, sampler_seed: Optional[int] = None,
                 tracer: Optional[PipelineTracer] = None) -> None:
        self.spec = spec
        self.wrapper = wrapper
        self.clock = clock
        self.tracer = tracer
        # Most recent finished ingest (step-1) span, adopted by the
        # pipeline's trigger span when the trace ids match.
        self.last_ingest_span: Optional[Span] = None
        # The lock serializes window mutation (wrapper threads) against
        # window reads (pipeline threads); in synchronous containers it
        # is uncontended and nearly free.
        self._lock = new_lock("SourceRuntime._lock")
        self.window_spec = spec.storage_size or _DEFAULT_WINDOW_SPEC
        # The window: one row (fields..., timed) per admitted element,
        # which step 2 reads in place.
        self.history = RowHistory(  # guarded-by: SourceRuntime._lock
            wrapper.output_schema().field_names,
            RetentionPolicy(*parse_window_spec(self.window_spec)))
        self._fields = self.history.columns[:-1]
        self.sampler = ProbabilisticSampler(spec.sampling_rate,
                                            seed=sampler_seed)
        self.buffer = DisconnectBuffer(spec.disconnect_buffer)
        self.quality = StreamQualityMonitor()
        self.elements_admitted = 0
        # Slide: decouple window updates from pipeline triggering.
        self._slide_kind: Optional[str] = None
        self._slide_amount = 0
        if spec.slide is not None:
            self._slide_kind, self._slide_amount = parse_window_spec(
                spec.slide)
        self._slide_count = 0
        self._last_slide_fire: Optional[int] = None

    def receive(self, element: StreamElement) -> Optional[StreamElement]:
        """:meth:`receive_many` on a batch of one: the admitted (stamped)
        element, or ``None`` if it was buffered, sampled out, or dropped.
        """
        admitted = self.receive_many((element,))
        return admitted[0] if admitted else None

    def receive_many(self, elements: Sequence[StreamElement]
                     ) -> List[StreamElement]:
        """Run a batch of raw elements through the admission stages.

        The one admission routine. Per batch: one clock reading (every
        element gets it as ``arrival_time`` and, unless the producer
        stamped it, as ``timed`` — pipeline step 1), one trace-sampling
        decision, one ingest span, one lock cycle and one window
        extension. Per element, as ever: quality monitor, disconnect
        buffer, sampler. Returns the admitted (stamped) elements in
        order; the window, the monitors and the sampler end up exactly
        where element-by-element delivery would leave them.
        """
        if not elements:
            return []
        now = self.clock.now()
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        fresh_id: Optional[str] = None
        if traced:
            started = perf_counter()
            # An inbound trace id (remote hop) is always honored; the
            # elements without one share the batch's single draw.
            if any(element.trace_id is None for element in elements) \
                    and tracer.sample():  # type: ignore[union-attr]
                fresh_id = new_trace_id()
        observe = self.quality.observe
        offer = self.buffer.offer
        connected = []
        for element in elements:
            element = element.received(now, fresh_id)
            observe(element)
            if offer(element):
                connected.append(element)
        admitted = self._into_window(connected)
        if traced:
            # The span answers for the element that will trigger (the
            # last admitted one), so the pipeline can adopt it by id.
            trace_id = (admitted[-1] if admitted else element).trace_id
            if trace_id is not None:
                span = tracer.ingest_span(  # type: ignore[union-attr]
                    trace_id, now, source=self.spec.alias,
                    wrapper=self.spec.address.wrapper,
                    tuples=len(elements), admitted=len(admitted))
                span.close((perf_counter() - started) * 1_000.0)
                tracer.record_ingest(span)  # type: ignore[union-attr]
                self.last_ingest_span = span
        return admitted

    def _into_window(self, elements: Sequence[StreamElement]
                     ) -> List[StreamElement]:
        """The tail of admission, shared with :meth:`reconnect`'s
        replay: sample, then extend the window under one lock cycle."""
        admit = self.sampler.admit
        admitted = [element for element in elements if admit(element)]
        if admitted:
            fields = self._fields
            rows = [element.as_tuple(fields) for element in admitted]
            with self._lock:
                self.history.extend(rows)
            self.elements_admitted += len(admitted)
        return admitted

    def slide_allows(self, element: StreamElement) -> bool:
        """Whether this admission should fire the pipeline.

        Without a ``slide`` spec every admission triggers (GSN's default).
        A count slide of N fires on every Nth admitted element; a time
        slide fires when at least the span elapsed (element timestamps)
        since the last firing. The window updates either way.
        """
        if self._slide_kind is None:
            return True
        if self._slide_kind == "count":
            self._slide_count += 1
            if self._slide_count >= self._slide_amount:
                self._slide_count = 0
                return True
            return False
        timed = element.timed or 0
        if self._last_slide_fire is None \
                or timed - self._last_slide_fire >= self._slide_amount:
            self._last_slide_fire = timed
            return True
        return False

    def disconnect(self) -> None:
        """Simulate or record a source outage."""
        self.buffer.disconnect()
        self.quality.record_disconnect()

    def reconnect(self) -> List[StreamElement]:
        """End the outage; replay buffered elements into the window.

        Returns the elements that were admitted on replay (callers may
        re-trigger processing for them).
        """
        return self._into_window(self.buffer.reconnect())

    def window_relation(self, now: Optional[int] = None) -> Relation:
        """A copy of the window read at ``now`` (step 2), without moving
        its horizon: the reference :meth:`snapshot_state` must match."""
        with self._lock:
            return self.history.read(now)

    def snapshot_state(
        self, now: Optional[int] = None, synchronous: bool = False,
    ) -> Tuple[Relation, int, bool, bool]:
        """The window read at ``now`` plus the metadata the cache needs.

        Returns ``(relation, version, from_view, cacheable)``:

        * ``relation`` — the step-2 window relation;
        * ``version`` — the window version it corresponds to (sampled
          *after* expiry, so it is a sound cache key);
        * ``from_view`` — True when the read is the live history, which
          the delta states mirror: no retained row is stamped after
          ``now``;
        * ``cacheable`` — False when the contents depend on ``now``
          beyond what ``version`` captures (a time window holding rows
          stamped ahead of the query time), so derived results must not
          be reused across triggers. It equals ``from_view``.

        In a ``synchronous`` container the live history itself is
        returned — safe because the caller finishes reading it before
        this source admits another element; otherwise a copy.
        """
        with self._lock:
            history = self.history
            relation, live = history.view(now)
            if live and not synchronous:
                relation = history.read()
            return relation, history.version, live, live

    def status(self) -> dict:
        with self._lock:
            window_size = len(self.history)
        return {
            "alias": self.spec.alias,
            "wrapper": self.spec.address.wrapper,
            "window": self.window_spec,
            "window_size": window_size,
            "admitted": self.elements_admitted,
            "connected": self.buffer.connected,
            "buffered": self.buffer.pending,
            "quality": self.quality.report.as_dict(),
        }


class StreamRuntime:
    """Per-``<input-stream>`` state: sources, rate bounder, lifetime."""

    def __init__(self, spec: InputStreamSpec, sources: List[SourceRuntime],
                 started_at: int) -> None:
        self.spec = spec
        self.sources = sources
        self._by_alias = {source.spec.alias: source for source in sources}
        self.rate_bounder: Optional[RateBounder] = (
            RateBounder(spec.rate) if spec.rate > 0 else None
        )
        self.expires_at: Optional[int] = None
        if spec.lifetime is not None:
            self.expires_at = started_at + parse_duration(spec.lifetime).millis
        self.triggers = 0
        self.triggers_bounded = 0

    def expired(self, now: int) -> bool:
        """Whether the stream's lifetime bound has elapsed — expired
        streams stop triggering so their resources are released."""
        return self.expires_at is not None and now >= self.expires_at

    def source(self, alias: str) -> SourceRuntime:
        try:
            return self._by_alias[alias]
        except KeyError:
            raise StreamError(f"input stream {self.spec.name!r} has no "
                              f"source {alias!r}") from None


class InputStreamManager:
    """Wires wrappers to windows and fires the processing trigger."""

    def __init__(self, clock: Clock, trigger: TriggerCallback,
                 seed: Optional[int] = None,
                 tracer: Optional[PipelineTracer] = None) -> None:
        self.clock = clock
        self._trigger = trigger
        # Registry + trigger bookkeeping shared between the deployment
        # thread, wrapper listener threads, and the async-gateway drain
        # thread. The lock covers only bookkeeping — never held across
        # receive()/_trigger() dispatch.
        self._lock = new_lock("InputStreamManager._lock")
        self._streams: Dict[str, StreamRuntime] = {}  # guarded-by: InputStreamManager._lock
        self._enabled = True
        self._seed = seed
        self.tracer = tracer
        # The source whose admission caused the in-flight trigger; lets
        # the pipeline adopt that source's ingest span without widening
        # the TriggerCallback signature.
        self.last_source: Optional[SourceRuntime] = None  # guarded-by: InputStreamManager._lock

    def add_stream(self, spec: InputStreamSpec,
                   wrappers: Dict[str, Wrapper]) -> StreamRuntime:
        """Register an input stream; ``wrappers`` maps source alias to the
        wrapper instance serving it."""
        with self._lock:
            if spec.name in self._streams:
                raise StreamError(
                    f"input stream {spec.name!r} already exists")
        sources = []
        for index, source_spec in enumerate(spec.sources):
            wrapper = wrappers[source_spec.alias]
            seed = None if self._seed is None else self._seed + index
            runtime = SourceRuntime(source_spec, wrapper, self.clock, seed,
                                    tracer=self.tracer)
            wrapper.add_listener(
                self._listener(spec.name, runtime)
            )
            sources.append(runtime)
        stream = StreamRuntime(spec, sources, started_at=self.clock.now())
        with self._lock:
            self._streams[spec.name] = stream
        return stream

    def remove_stream(self, name: str) -> None:
        with self._lock:
            stream = self._streams.pop(name, None)
        if stream is None:
            raise StreamError(f"no input stream {name!r}")

    def _listener(self, stream_name: str, runtime: SourceRuntime):
        def on_element(element: StreamElement) -> None:
            if not self._enabled:
                return
            with self._lock:
                stream = self._streams.get(stream_name)
            if stream is None:
                return
            if stream.expired(self.clock.now()):
                return
            admitted = runtime.receive(element)
            if admitted is None:
                return
            if not runtime.slide_allows(admitted):
                return
            if stream.rate_bounder is not None \
                    and not stream.rate_bounder.admit(admitted):
                stream.triggers_bounded += 1
                return
            stream.triggers += 1
            with self._lock:
                self.last_source = runtime
            self._trigger(stream_name, admitted)
        return on_element

    def ingest_batch(self, stream_name: str, alias: str,
                     elements: Sequence[StreamElement]) -> int:
        """Admit a batch of elements for one source, triggering at most
        once.

        The per-element path (:meth:`_listener`) evaluates the query on
        every slide-allowed admission; this path amortizes that cost:
        the batch goes through the same admission routine
        (:meth:`SourceRuntime.receive_many`) in one pass, and the
        trigger fires once with the *last* slide-allowed element —
        after which the window holds exactly what per-tuple delivery
        would have left, so the final evaluation sees identical state.
        Returns the number of admitted elements (what survived
        sampling/quality, not what triggered).  This is the hand-off
        target of the async ingestion gateway.
        """
        if not self._enabled:
            return 0
        with self._lock:
            stream = self._streams.get(stream_name)
        if stream is None:
            raise StreamError(f"no input stream {stream_name!r}")
        if stream.expired(self.clock.now()):
            return 0
        runtime = stream.source(alias)
        last: Optional[StreamElement] = None
        admitted = runtime.receive_many(elements)
        for element in admitted:
            if runtime.slide_allows(element):
                last = element
        if last is None:
            return len(admitted)
        if stream.rate_bounder is not None \
                and not stream.rate_bounder.admit(last):
            stream.triggers_bounded += 1
            return len(admitted)
        stream.triggers += 1
        with self._lock:
            self.last_source = runtime
        self._trigger(stream_name, last)
        return len(admitted)

    def pause(self) -> None:
        """Stop triggering (elements are still observed by wrappers but
        discarded) — used while a sensor is paused or being reconfigured."""
        self._enabled = False

    def resume(self) -> None:
        self._enabled = True

    def stream(self, name: str) -> StreamRuntime:
        try:
            with self._lock:
                return self._streams[name]
        except KeyError:
            raise StreamError(f"no input stream {name!r}") from None

    def streams(self) -> List[StreamRuntime]:
        with self._lock:
            return list(self._streams.values())

    def status(self) -> dict:
        now = self.clock.now()
        with self._lock:
            streams = dict(self._streams)
        return {
            name: {
                "rate": stream.spec.rate,
                "triggers": stream.triggers,
                "triggers_bounded": stream.triggers_bounded,
                "expired": stream.expired(now),
                "expires_at": stream.expires_at,
                "sources": [source.status() for source in stream.sources],
            }
            for name, stream in streams.items()
        }
