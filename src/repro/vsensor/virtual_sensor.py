"""The virtual sensor runtime: GSN's 5-step processing pipeline.

Paper, Section 3 — on each input-stream arrival:

1. stamp the element with the local clock if it carries no timestamp
   (done in the ISM's :class:`~repro.vsensor.input_manager.SourceRuntime`);
2. select each source's window contents and unnest them into flat
   relations;
3. evaluate the per-source queries into temporary relations;
4. evaluate the output query over the temporary relations;
5. persist the result if required and notify all consumers.
"""

from __future__ import annotations

import logging
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.concurrency import new_lock
from repro.descriptors.model import VirtualSensorDescriptor
from repro.exceptions import DeploymentError, SchemaError
from repro.gsntime.clock import Clock
from repro.metrics.collectors import FastPathCounters, LatencyRecorder
from repro.metrics.flight import FlightRecorder
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import PipelineTracer, Span, TraceBuffer
from repro.sqlengine.executor import Catalog
from repro.sqlengine.incremental import (
    REASON_TYPE_RISK, REASON_UNKNOWN_COLUMN, REASON_WHERE,
    AggregateQuery, Classified, DeltaTopN, GroupedAggregateQuery,
    GroupedAggregateState, IdentityQuery, IncrementalAggregateState,
    IncrementalJoinState, TopOneQuery, classify_join, classify_with_reason,
    missing_columns,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.physical import (
    Unsupported, compile_for_catalog, run_plan,
)
from repro.sqlengine.planner import SelectPlan, plan_select
from repro.sqlengine.relation import Relation
from repro.sqlengine.rewriter import WRAPPER_TABLE
from repro.storage.base import StreamTable
from repro.streams.element import StreamElement
from repro.streams.schema import StreamSchema
from repro.vsensor.input_manager import (
    InputStreamManager, SourceRuntime, StreamRuntime,
)
from repro.vsensor.lifecycle import LifeCycleManager
from repro.wrappers.base import Wrapper

#: Key for everything kept per stream source: aliases are only unique
#: within one input stream, so (stream name, alias) is the real identity.
SourceKey = Tuple[str, str]

OutputListener = Callable[[StreamElement], None]

logger = logging.getLogger("repro.vsensor")

DeltaState = Union[IncrementalAggregateState, GroupedAggregateState,
                   DeltaTopN]

#: The delta state answering each classified shape (identity needs none),
#: and the kind ``incremental_status()`` reports for it.
_DELTA_STATES = {
    AggregateQuery: (IncrementalAggregateState, "aggregate"),
    GroupedAggregateQuery: (GroupedAggregateState, "group-aggregate"),
    TopOneQuery: (DeltaTopN, "top-1"),
}


def coverage_percent(eligible: int, total: int) -> float:
    """Share of per-source queries on a fast path, in percent."""
    return round(100.0 * eligible / total, 1) if total else 0.0


class VirtualSensor:
    """One deployed virtual sensor.

    Built by the :class:`~repro.vsensor.manager.VirtualSensorManager`;
    applications normally interact through the container, but the object
    itself exposes the output stream (:meth:`add_listener`), status, and
    manual source control (disconnect/reconnect) for failure injection.
    """

    def __init__(self, descriptor: VirtualSensorDescriptor, clock: Clock,
                 wrappers: Dict[str, Wrapper],
                 output_table: Optional[StreamTable] = None,
                 synchronous: bool = True,
                 seed: Optional[int] = None,
                 node: str = "",
                 registry: Optional[MetricsRegistry] = None,
                 trace_sink: Optional[TraceBuffer] = None,
                 events: Optional[FlightRecorder] = None
                 ) -> None:
        self.descriptor = descriptor
        self.name = descriptor.name
        self.clock = clock
        self.wrappers = dict(wrappers)
        self.output_table = output_table
        self.events = events
        # Disabled (a cheap no-op) unless the container hands us a
        # registry or a trace sink — bare sensors built in tests keep
        # the exact pre-observability pipeline.
        self.tracer = PipelineTracer(descriptor.name, node,
                                     sampling=descriptor.trace_sampling,
                                     sink=trace_sink, registry=registry,
                                     seed=seed)
        self.lifecycle = LifeCycleManager(descriptor.name,
                                          descriptor.lifecycle,
                                          synchronous=synchronous,
                                          events=events)
        # The live window view may only be handed to the executor when
        # nothing can mutate it mid-query: synchronous pipelines.
        self._synchronous = synchronous
        self.ism = InputStreamManager(clock, self._on_trigger, seed=seed,
                                      tracer=self.tracer)
        self.latency = LatencyRecorder(keep_samples=True)
        self.fast_paths = FastPathCounters()
        self.elements_produced = 0  # guarded-by: VirtualSensor._emit_lock
        self._consecutive_errors = 0
        self._listeners: List[OutputListener] = []  # guarded-by: VirtualSensor._emit_lock
        # Serializes step 5 when the pipeline runs on a threaded pool, so
        # persistence order and counters stay consistent. Persisting to a
        # permanent table takes the storage lock inside the emit lock:
        # lock-order: VirtualSensor._emit_lock < SQLiteStreamTable._lock
        self._emit_lock = new_lock("VirtualSensor._emit_lock")
        #: Hooks called after each pipeline run with
        #: ``(trigger_virtual_ms, service_wall_ms)`` — the experiment
        #: harness uses these to feed its node queueing model.
        self.processing_hooks: List[Callable[[int, float], None]] = []

        # Plans are prepared once per deployment and reused per trigger —
        # this is the plan cache half of GSN's "adaptive query execution".
        self._source_plans: Dict[SourceKey, SelectPlan] = {}
        self._stream_plans: Dict[str, SelectPlan] = {}
        # Fast-path classification of per-source plans, plus the delta
        # states (accumulators, top-1 rows) listening to the histories.
        self._fast_paths: Dict[SourceKey, Classified] = {}
        # The attach decision per source: None when its fast path
        # attached, else the taxonomy reason (the status "static" block).
        self._attach_reasons: Dict[SourceKey, Optional[str]] = {}
        self._agg_states: Dict[SourceKey, DeltaState] = {}
        # Delta-maintained two-source equi-joins, one per stream whose
        # output query qualifies (synchronous containers only).
        self._join_states: Dict[str, IncrementalJoinState] = {}
        # Step-3 result cache: (window version, temporary relation).
        self._temp_cache: Dict[SourceKey, Tuple[int, Relation]] = {}
        for stream in descriptor.input_streams:
            for source in stream.sources:
                self._source_plans[(stream.name, source.alias)] = plan_select(
                    parse_select(source.query)
                )
            self._stream_plans[stream.name] = plan_select(
                parse_select(stream.query)
            )
            missing = [s.alias for s in stream.sources
                       if s.alias not in self.wrappers]
            if missing:
                raise DeploymentError(
                    f"{descriptor.name}: no wrapper instance for "
                    f"source(s) {missing}"
                )
            runtime = self.ism.add_stream(
                stream,
                {s.alias: self.wrappers[s.alias] for s in stream.sources},
            )
            for source_runtime in runtime.sources:
                self._attach_fast_path(stream.name, source_runtime)
            self._attach_join(stream.name, runtime)
        self._compile_source_plans()

    # -- output stream -------------------------------------------------------

    @property
    def output_schema(self) -> StreamSchema:
        return self.descriptor.output_structure

    def add_listener(self, listener: OutputListener) -> None:
        with self._emit_lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: OutputListener) -> None:
        with self._emit_lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def latest_output(self) -> Optional[StreamElement]:
        if self.output_table is None:
            return None
        return self.output_table.latest()

    # -- life cycle ----------------------------------------------------------

    def start(self) -> None:
        self.lifecycle.start(self.clock.now())
        for wrapper in self._unique_wrappers():
            wrapper.start()

    def stop(self) -> None:
        for wrapper in self._unique_wrappers():
            wrapper.stop()
        self.ism.pause()
        self.lifecycle.stop()

    def pause(self) -> None:
        self.lifecycle.pause()
        self.ism.pause()

    def resume(self) -> None:
        self.lifecycle.resume()
        self.ism.resume()

    def ingest_batch(self, stream_name: str, alias: str,
                     values: Sequence[Any]) -> int:
        """Deliver a batch of tuples to one source, evaluating at most
        once.

        Accepts ready-made :class:`StreamElement`\\ s or plain mappings
        (a ``"timed"`` key, when present, becomes the element
        timestamp).  Used by the async ingestion gateway to amortize one
        window-update + query evaluation over a whole batch; see
        :meth:`InputStreamManager.ingest_batch` for the equivalence
        argument.  Returns the number of admitted elements.
        """
        # One payload dict per tuple: the element's constructor is the
        # only copy (it normalises the keys and drops ``timed``).
        elements = [
            value if isinstance(value, StreamElement)
            else StreamElement(value, timed=value.get("timed"))
            for value in values
        ]
        return self.ism.ingest_batch(stream_name, alias, elements)

    def _unique_wrappers(self) -> List[Wrapper]:
        seen: Dict[int, Wrapper] = {}
        for wrapper in self.wrappers.values():
            seen.setdefault(id(wrapper), wrapper)
        return list(seen.values())

    # -- fast-path wiring ------------------------------------------------------

    def _attach_fast_path(self, stream_name: str,
                          source: SourceRuntime) -> None:
        """Classify one per-source plan, wire up its fast path and record
        the decision: ``None`` when it attached, else the reason.

        Anything that doesn't qualify simply stays on the generic
        executor — classification is advisory, never load-bearing.
        """
        key = (stream_name, source.spec.alias)
        classified, reason = classify_with_reason(self._source_plans[key])
        state: Optional[DeltaState] = None
        history = source.history
        if classified is not None \
                and not isinstance(classified, IdentityQuery):
            # Delta states listen to the window's history, under count
            # and time retention alike; the referenced columns must all
            # exist in it, otherwise the executor must keep raising its
            # unknown-column error at query time.
            if missing_columns(classified, history._index):
                reason = REASON_UNKNOWN_COLUMN
            else:
                label = (f"{self.name}/{stream_name}/{source.spec.alias}: "
                         f"{source.spec.query}")
                try:
                    state = _DELTA_STATES[type(classified)][0](
                        classified, history, label=label,
                        on_poison=lambda exc: self._poisoned(*key, exc))
                except Unsupported:
                    reason = REASON_WHERE  # the emitter cannot compile it
                else:
                    if not state.healthy:
                        reason = REASON_TYPE_RISK  # poisoned attaching
        self._attach_reasons[key] = reason
        if reason is not None:
            return
        assert classified is not None
        self._fast_paths[key] = classified
        if state is not None:
            history.add_listener(state)
            self._agg_states[key] = state

    def _poisoned(self, stream_name: str, alias: str,
                  exc: BaseException) -> None:
        # Counted per sensor (fastpath_poisoned_total); the query text
        # itself is logged once by the state.
        self.fast_paths.record_poisoned()
        if self.events is not None:
            self.events.record("poisoned", self.name, stream=stream_name,
                               alias=alias,
                               error=f"{type(exc).__name__}: {exc}")

    def _attach_join(self, stream_name: str, runtime: StreamRuntime) -> None:
        """Wire the delta-maintained join for a qualifying stream query.

        Three gates, all advisory (failing any leaves the stream query
        on per-trigger execution): the output query must classify as a
        two-source inner equi-join over two distinct sources; both sides' per-source queries must ride the identity
        fast path, so the join's inputs are exactly the temporaries the
        executor would see; and the container must be synchronous — the
        join state listens on two windows whose deltas arrive under two
        different source locks, so it is only safe when all windows
        mutate on the caller's thread.
        """
        if not self._synchronous:
            return
        spec = classify_join(self._stream_plans[stream_name])
        if spec is None:
            return
        by_alias = {source.spec.alias.lower(): source
                    for source in runtime.sources}
        left = by_alias.get(spec.left_table.lower())
        right = by_alias.get(spec.right_table.lower())
        if left is None or right is None or left is right:
            return
        for side in (left, right):
            key = (stream_name, side.spec.alias)
            if not isinstance(self._fast_paths.get(key), IdentityQuery):
                return
        try:
            state = IncrementalJoinState(
                spec, left.history, right.history,
                label=f"{self.name}/{stream_name}: {runtime.spec.query}",
                on_poison=lambda exc: self._poisoned(stream_name, "<join>",
                                                     exc),
            )
        except Exception:
            # Unresolvable columns etc.: the executor raises the real
            # error at query time, exactly as without the fast path.
            logger.debug(
                "%s: join fast path for stream %s did not attach; the "
                "output query stays on per-trigger execution",
                self.name, stream_name, exc_info=True,
            )
            return
        if not state.healthy:
            state.detach()
            return
        self._join_states[stream_name] = state

    def _compile_source_plans(self) -> None:
        """Deploy-time compilation of the per-source plans.

        Each plan is lowered against its window's history into a pull-based physical-operator pipeline, so the last rung
        of the ladder re-executes generated stages per trigger with
        zero re-planning. Shapes the compiler rejects stay on the
        interpreter (the failure is cached on the plan)."""
        for stream in self.descriptor.input_streams:
            runtime = self.ism.stream(stream.name)
            for source in runtime.sources:
                plan = self._source_plans[(stream.name, source.spec.alias)]
                compile_for_catalog(plan,
                                    Catalog({WRAPPER_TABLE: source.history}))

    # -- the pipeline ----------------------------------------------------------

    def _on_trigger(self, stream_name: str, element: StreamElement) -> None:
        if not self.lifecycle.is_processing:
            return
        self.lifecycle.pool.submit(
            lambda: self._process(stream_name, element)
        )

    def _process(self, stream_name: str, trigger: StreamElement) -> None:
        self.latency.start()
        now = self.clock.now()
        root = self.tracer.begin(trigger.trace_id, now, stream=stream_name)
        if root is not None:
            self._adopt_ingest_span(root)
        try:
            stream = self.ism.stream(stream_name)

            # Steps 2+3: window contents -> flat relations -> temporary
            # relations, one per stream source.
            temporaries = Catalog()
            all_views = True
            for source in stream.sources:
                temporary, from_view = self._source_temporary(
                    stream_name, source, now, parent=root)
                temporaries.register(source.spec.alias, temporary)
                all_views = all_views and from_view

            # Step 4: the output query over the temporary relations.
            span = root.child("output_query") if root is not None else None
            result = self._output_result(stream_name, temporaries,
                                         all_views, span)
            if span is not None:
                span.attributes["rows"] = len(result)
                span.finish()

            # Step 5: persist and notify, one output element per row.
            span = root.child("persist_notify") if root is not None else None
            trace_id = root.trace_id if root is not None else None
            for row in result.to_dicts():
                self._emit(row, default_timed=trigger.timed or now,
                           trace_id=trace_id)
            if span is not None:
                span.finish()
        except Exception as exc:
            if root is not None:
                root.attributes["error"] = repr(exc)
            self._on_pipeline_error(exc)
            raise
        else:
            self._consecutive_errors = 0
        finally:
            self.tracer.finish(root)
            service_ms = self.latency.stop()
            for hook in self.processing_hooks:
                hook(trigger.timed if trigger.timed is not None else now,
                     service_ms)

    def _adopt_ingest_span(self, root: Span) -> None:
        """Attach the step-1 (ingest) span of the triggering element.

        Exact in synchronous containers; in threaded mode a concurrent
        admission may have replaced the stashed span, so adoption is
        best-effort and keyed on the trace id matching.
        """
        source = self.ism.last_source
        if source is None:
            return
        span = source.last_ingest_span
        if span is not None and span.trace_id == root.trace_id:
            root.children.append(span)
            source.last_ingest_span = None

    def _source_temporary(self, stream_name: str, source: SourceRuntime,
                          now: int, parent: Optional[Span] = None
                          ) -> Tuple[Relation, bool]:
        """Step 3 for one source: its per-source query's result relation.

        The incremental ladder, cheapest rung first:

        1. temporary cache — the source's window hasn't moved since the
           last trigger, reuse the previous result outright;
        2. identity fast path — the query is ``select * from wrapper``,
           hand back the delta-maintained window relation;
        3. delta states — answer from running accumulators (flat or
           grouped), or project the top-1 row a monotone deque keeps;
        4. compiled — run the deploy-time compiled pipeline (or the
           interpreter, for the shapes the compiler rejects) over the
           window relation.

        Returns ``(temporary, from_view)`` — the second element reports
        whether step 2 was served by the live window history, which
        the join fast path uses as its per-trigger validity gate.

        With a ``parent`` span the window selection (step 2) and the
        query evaluation (step 3) each get a child span; the chosen
        ladder rung lands in the span's ``path`` attribute.
        """
        key = (stream_name, source.spec.alias)
        alias = source.spec.alias
        span = parent.child("window_select", source=alias) \
            if parent is not None else None
        relation, version, from_view, cacheable = source.snapshot_state(
            now, synchronous=self._synchronous
        )
        if span is not None:
            span.attributes["from_view"] = from_view
            span.finish()
        self.fast_paths.record_view(from_view)

        span = parent.child("source_query", source=alias) \
            if parent is not None else None
        cached = self._temp_cache.get(key)
        if cacheable and cached is not None and cached[0] == version:
            self.fast_paths.record_cache(True)
            if span is not None:
                span.attributes["path"] = "cache"
                span.finish()
            return cached[1], from_view
        self.fast_paths.record_cache(False)

        path = "interpreted"
        temporary: Optional[Relation] = None
        fast = self._fast_paths.get(key)
        if from_view and fast is not None:
            if isinstance(fast, IdentityQuery):
                self.fast_paths.record_identity()
                temporary = relation
                path = "identity"
            else:
                temporary = self._aggregate_snapshot(key, source, fast)
                if temporary is not None:
                    path = "aggregate"
        if temporary is None:
            self.fast_paths.record_legacy()
            window_catalog = Catalog({WRAPPER_TABLE: relation})
            temporary, compiled = run_plan(self._source_plans[key],
                                           window_catalog)
            self.fast_paths.record_compiled(compiled)
            if compiled:
                path = "compiled"
        if cacheable:
            self._temp_cache[key] = (version, temporary)
        if span is not None:
            span.attributes["path"] = path
            span.finish()
        return temporary, from_view

    def _output_result(self, stream_name: str, temporaries: Catalog,
                       all_views: bool,
                       span: Optional[Span]) -> Relation:
        """Step 4, cheapest route first.

        A healthy delta-maintained join answers from its hash indexes —
        but only when every source served its live window view this
        trigger (``all_views``), because the join state mirrors the raw
        windows and a filtered copy of a window could diverge from
        them. Otherwise the output query runs through the compiled
        pipeline, or the tree-walking interpreter for shapes the
        compiler rejects.
        """
        plan = self._stream_plans[stream_name]
        state = self._join_states.get(stream_name)
        if state is not None:
            result = self._join_snapshot(stream_name, state, all_views)
            if result is not None:
                if span is not None:
                    span.attributes["path"] = "join"
                return result
        result, compiled = run_plan(plan, temporaries)
        self.fast_paths.record_compiled(compiled)
        if span is not None:
            span.attributes["path"] = "compiled" if compiled \
                else "interpreted"
        return result

    def _join_snapshot(self, stream_name: str, state: IncrementalJoinState,
                       all_views: bool) -> Optional[Relation]:
        """The join state's current answer, or ``None`` to fall back."""
        if not all_views or not state.healthy:
            self.fast_paths.record_join_fallback()
            return None
        try:
            # Synchronous containers only: all windows mutate on this
            # thread, so the state cannot change under the snapshot.
            result = state.snapshot()
        except Exception as exc:
            state._poison(exc)
            self.fast_paths.record_join_fallback()
            logger.warning(
                "%s: join state for stream %s poisoned itself; falling "
                "back to per-trigger execution", self.name, stream_name,
                exc_info=True,
            )
            return None
        self.fast_paths.record_join()
        return result

    def _aggregate_snapshot(self, key: SourceKey, source: SourceRuntime,
                            spec: Classified) -> Optional[Relation]:
        """The delta state's current answer, or ``None`` to fall back.

        A poisoned state routes the query through per-trigger
        execution, so errors surface at query time exactly as they
        would without the state; so does a state deferring while a NaN
        is in the window. A snapshot only reads what the deltas keep,
        so it cannot raise. A top-1 state hands back its best row,
        which the source plan itself then projects.
        """
        state = self._agg_states.get(key)
        if state is None:
            return None
        snapshot = None
        if state.healthy:
            # Under the source lock: delta states are updated inside the
            # window's notification path, which holds the same lock.
            with source._lock:
                snapshot = state.snapshot()
        if snapshot is None:
            self.fast_paths.record_aggregate_fallback()
            return None
        if isinstance(state, DeltaTopN):
            snapshot, __ = run_plan(self._source_plans[key],
                                    Catalog({WRAPPER_TABLE: snapshot}))
        self.fast_paths.record_aggregate()
        return snapshot

    def _on_pipeline_error(self, exc: Exception) -> None:
        """Apply the descriptor's error-handling policy: after
        ``max-errors`` consecutive failures the sensor fails fast instead
        of burning cycles on a broken source."""
        self._consecutive_errors += 1
        logger.error("%s: pipeline error (%d consecutive): %s",
                     self.name, self._consecutive_errors, exc)
        limit = self.descriptor.lifecycle.max_errors
        if limit and self._consecutive_errors >= limit \
                and self.lifecycle.is_processing:
            self.ism.pause()
            self.lifecycle.fail(
                f"{self._consecutive_errors} consecutive pipeline "
                f"failures; last: {exc}"
            )

    def _emit(self, row: Dict[str, Any], default_timed: int,
              trace_id: Optional[str] = None) -> None:
        values = self._to_output_values(row)
        timed = row.get("timed")
        if not isinstance(timed, int) or isinstance(timed, bool):
            timed = default_timed
        element = StreamElement(values, timed=timed, producer=self.name,
                                trace_id=trace_id)
        with self._emit_lock:
            if self.output_table is not None:
                self.output_table.append(element)
            self.elements_produced += 1
            listeners = list(self._listeners)
        for listener in listeners:
            listener(element)

    def _to_output_values(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Map a result row onto the declared output structure by name.

        Extra result columns are dropped; declared fields missing from the
        row become ``None``; numeric values are rounded when the declared
        field is integral (``avg()`` over integers yields floats).
        """
        values: Dict[str, Any] = {}
        for field in self.output_schema:
            value = row.get(field.name)
            if value is not None and isinstance(value, float) \
                    and field.type.python_type is int:
                value = int(round(value))
            try:
                values[field.name] = field.type.coerce(value)
            except SchemaError as exc:
                raise SchemaError(
                    f"{self.name}: output field {field.name!r}: {exc}"
                ) from exc
        return values

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        return {
            "name": self.name,
            "state": self.lifecycle.state.value,
            "counters": {
                "elements_produced": self.elements_produced,
                "tasks_completed": self.lifecycle.pool.tasks_completed,
                "tasks_failed": self.lifecycle.pool.tasks_failed,
            },
            "uptime_ms": self.lifecycle.uptime_ms(),
            "description": self.descriptor.description,
            "lifecycle": self.lifecycle.status(),
            "output_schema": {
                field.name: field.type.value for field in self.output_schema
            },
            "elements_produced": self.elements_produced,
            "processing": self.latency.summary(),
            "input_streams": self.ism.status(),
            "permanent_storage": self.descriptor.storage.permanent,
            "incremental": self.incremental_status(),
            "trace_sampling": self.tracer.sampling,
        }

    def incremental_status(self) -> dict:
        """Fast-path wiring and hit counters (dashboard/status block)."""
        kinds = {}
        for (stream_name, alias), classified in self._fast_paths.items():
            if isinstance(classified, IdentityQuery):
                kind = "identity"
            else:
                state = self._agg_states.get((stream_name, alias))
                base = _DELTA_STATES[type(classified)][1]
                kind = base if state is None or state.healthy \
                    else f"{base} (poisoned)"
            kinds[f"{stream_name}/{alias}"] = kind
        joins = {
            stream: "join" if state.healthy else "join (poisoned)"
            for stream, state in self._join_states.items()
        }
        return {
            "fast_paths": kinds,
            "joins": joins,
            "counters": self.fast_paths.snapshot(),
            "static": self._static_status(),
        }

    def _static_status(self) -> dict:
        """The attach decision per source and fast-path coverage."""
        verdicts = {
            f"{stream_name}/{alias}": {"eligible": reason is None,
                                       "reason": reason}
            for (stream_name, alias), reason
            in sorted(self._attach_reasons.items())
        }
        eligible = sum(reason is None
                       for reason in self._attach_reasons.values())
        total = len(verdicts)
        return {
            "verdicts": verdicts,
            "eligible": eligible,
            "total": total,
            "coverage_percent": coverage_percent(eligible, total),
        }

    def __repr__(self) -> str:
        return (f"<VirtualSensor {self.name!r} "
                f"state={self.lifecycle.state.value} "
                f"produced={self.elements_produced}>")
