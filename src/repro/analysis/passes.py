"""The descriptor-level analysis passes of gsn-lint.

Three passes over one *deployment set* (any number of virtual-sensor
descriptors analyzed together):

1. **Schema pass** — derives each wrapper's output schema from the
   registry, propagates it through the source-query ASTs into the
   stream relations and the output query, and checks the result against
   the declared ``<output-structure>`` (rules GSN1xx).
2. **Graph pass** — builds the cross-virtual-sensor dependency graph
   from remote/logical-addressing sources and flags cycles, dangling
   producers, and unsatisfiable predicates (rules GSN2xx).
3. **Resource pass** — bounds per-source window memory (count- and
   time-based windows × sampling rate) and warns on unbounded-growth
   configurations (rules GSN3xx).

Everything is reported as :class:`~repro.analysis.rules.Finding`;
structurally-valid descriptors never make the analyzer raise.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datatypes import DataType
from repro.descriptors.model import (
    StreamSourceSpec, VirtualSensorDescriptor,
)
from repro.descriptors.validation import validate_descriptor
from repro.exceptions import GSNError, SQLError, ValidationError
from repro.gsntime.duration import parse_window_spec
from repro.sqlengine.ast_nodes import SelectStatement
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import plan_select
from repro.sqlengine.rewriter import WRAPPER_TABLE, statement_tables
from repro.streams.schema import TIMED_FIELD, StreamSchema
from repro.wrappers.registry import WrapperRegistry

from repro.analysis.rules import Report
from repro.analysis.schema_infer import (
    RelSchema, infer_output_schema, wrapper_relation_schema,
)

#: Default per-source window memory budget: 64 MiB.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

#: Count windows above this size are flagged as suspicious outright.
HUGE_COUNT_WINDOW = 1_000_000

#: Estimated per-element Python object overhead (StreamElement + refs).
_ELEMENT_OVERHEAD = 96

_FIELD_BYTES = {
    DataType.INTEGER: 8,
    DataType.DOUBLE: 8,
    DataType.TIMESTAMP: 8,
    DataType.BOOLEAN: 8,
    DataType.VARCHAR: 64,
    DataType.BINARY: 1024,
}

#: Resolves a remote source's predicates to the producing sensor's output
#: schema (None when not statically resolvable).
RemoteResolver = Callable[[Dict[str, str]], Optional[StreamSchema]]


def analyze(descriptors: Sequence[VirtualSensorDescriptor],
            registry: Optional[WrapperRegistry] = None,
            sources: Optional[Sequence[str]] = None,
            memory_budget: int = DEFAULT_MEMORY_BUDGET,
            external_producers: bool = False,
            plan: bool = False) -> Report:
    """Run all descriptor passes over a deployment set.

    ``sources`` optionally names the file each descriptor came from (for
    findings output). ``external_producers`` suppresses dangling-producer
    findings (GSN202/GSN203) — the right mode when the set is deployed
    into a peer network where producers may live on other nodes.
    ``plan`` additionally runs the deploy-time query-plan pass
    (:mod:`repro.analysis.planpass`, rules GSN7xx); it is opt-in because
    GSN701 warns on *any* source query off the incremental fast path.
    """
    report = Report()
    files = list(sources) if sources is not None else [""] * len(descriptors)
    if len(files) != len(descriptors):
        raise ValueError("sources must align with descriptors")

    producers: Dict[str, VirtualSensorDescriptor] = {}
    for descriptor, source in zip(descriptors, files):
        if descriptor.name in producers:
            report.add("GSN205",
                       f"virtual sensor {descriptor.name!r} is declared "
                       f"more than once in this deployment set",
                       location=descriptor.name, source=source)
        producers.setdefault(descriptor.name, descriptor)

    resolver = _make_resolver(descriptors)
    for descriptor, source in zip(descriptors, files):
        analyze_descriptor(descriptor, registry=registry, report=report,
                           source=source, memory_budget=memory_budget,
                           remote_resolver=resolver, plan=plan)

    _graph_pass(list(zip(descriptors, files)), report,
                external_producers=external_producers)
    return report


def analyze_descriptor(descriptor: VirtualSensorDescriptor,
                       registry: Optional[WrapperRegistry] = None,
                       report: Optional[Report] = None,
                       source: str = "",
                       memory_budget: int = DEFAULT_MEMORY_BUDGET,
                       remote_resolver: Optional[RemoteResolver] = None,
                       plan: bool = False) -> Report:
    """Schema + resource passes for one descriptor (graph findings need
    the full set; use :func:`analyze` for those)."""
    if report is None:
        report = Report()
    try:
        validate_descriptor(descriptor)
    except ValidationError as exc:
        report.add("GSN100", str(exc), location=descriptor.name,
                   source=source)
        return report
    wrapper_schemas = _derive_wrapper_schemas(descriptor, registry, report,
                                              source, remote_resolver)
    _schema_pass(descriptor, wrapper_schemas, report, source)
    _resource_pass(descriptor, wrapper_schemas, report, source,
                   memory_budget)
    if plan:
        # Deferred import: planpass builds on this module's helpers.
        from repro.analysis.planpass import plan_descriptor
        plan_descriptor(descriptor, registry=registry, report=report,
                        source=source, wrapper_schemas=wrapper_schemas,
                        remote_resolver=remote_resolver)
    return report


def schema_check(descriptor: VirtualSensorDescriptor,
                 registry: Optional[WrapperRegistry],
                 report: Optional[Report] = None,
                 source: str = "",
                 remote_resolver: Optional[RemoteResolver] = None
                 ) -> Report:
    """Only the schema pass (GSN1xx rules) for one descriptor.

    Assumes the descriptor already passed basic validation; this is the
    hook ``validate_descriptor(..., registry=...)`` folds in to make
    ``SELECT *`` and column/type mistakes static errors.
    """
    if report is None:
        report = Report()
    wrapper_schemas = _derive_wrapper_schemas(descriptor, registry, report,
                                              source, remote_resolver)
    _schema_pass(descriptor, wrapper_schemas, report, source)
    return report


def _derive_wrapper_schemas(descriptor: VirtualSensorDescriptor,
                            registry: Optional[WrapperRegistry],
                            report: Report, source: str,
                            remote_resolver: Optional[RemoteResolver]
                            ) -> Dict[Tuple[str, str],
                                      Optional[StreamSchema]]:
    """(stream name, alias) -> wrapper output schema (None = unknown),
    reporting GSN108/GSN109 findings along the way."""
    schemas: Dict[Tuple[str, str], Optional[StreamSchema]] = {}
    for stream in descriptor.input_streams:
        for src in stream.sources:
            context = f"{descriptor.name}/{stream.name}/{src.alias}"
            schemas[(stream.name, src.alias)] = _wrapper_schema(
                src, registry, report, source, context, remote_resolver
            )
    return schemas


# --------------------------------------------------------------------------
# Pass 1: schema inference & type checking
# --------------------------------------------------------------------------

def _schema_pass(descriptor: VirtualSensorDescriptor,
                 wrapper_schemas: Dict[Tuple[str, str],
                                       Optional[StreamSchema]],
                 report: Report, source: str) -> None:
    declared: RelSchema = {
        f.name: f.type for f in descriptor.output_structure
    }

    for stream in descriptor.input_streams:
        alias_schemas: Dict[str, Optional[RelSchema]] = {}
        for src in stream.sources:
            context = f"{descriptor.name}/{stream.name}/{src.alias}"
            alias_schemas[src.alias] = _infer_source_query(
                src, wrapper_schemas[(stream.name, src.alias)],
                report, source, context
            )

        context = f"{descriptor.name}/{stream.name}"
        statement = _parse(stream.query, f"{context} stream query",
                           report, source)
        if statement is None:
            continue
        used = statement_tables(statement) & set(alias_schemas)
        if any(alias_schemas[alias] is None for alias in used):
            report.add("GSN108",
                       "stream query reads source(s) with statically "
                       "unknown schema; output checks skipped",
                       location=context, source=source)
            continue
        tables = {alias: schema for alias, schema in alias_schemas.items()
                  if schema is not None}
        inferred = infer_output_schema(statement, tables, report,
                                       f"{context} stream query", source)
        if inferred is not None:
            _check_output(descriptor, inferred, declared, report, source,
                          context)


def _wrapper_schema(src: StreamSourceSpec,
                    registry: Optional[WrapperRegistry],
                    report: Report, source: str, context: str,
                    remote_resolver: Optional[RemoteResolver]
                    ) -> Optional[StreamSchema]:
    """The output schema of the wrapper feeding ``src``, or ``None`` when
    it cannot be derived statically."""
    name = src.address.wrapper
    if name == "remote":
        if remote_resolver is not None:
            resolved = remote_resolver(dict(src.address.predicates))
            if resolved is not None:
                return resolved
        report.add("GSN108",
                   f"remote source schema not statically resolvable "
                   f"(predicates: {dict(src.address.predicates)})",
                   location=context, source=source)
        return None
    if registry is None:
        report.add("GSN108",
                   f"no wrapper registry supplied; schema of wrapper "
                   f"{name!r} unknown", location=context, source=source)
        return None
    if name not in registry:
        report.add("GSN109",
                   f"unknown wrapper {name!r}; known: "
                   f"{', '.join(registry.names())}",
                   location=context, source=source)
        return None
    try:
        wrapper = registry.create(name)
        wrapper.configure(src.address.predicates)
    except Exception as exc:
        report.add("GSN109",
                   f"wrapper {name!r} rejected its address predicates: "
                   f"{exc}", location=context, source=source)
        return None
    try:
        return wrapper.output_schema()
    except Exception:
        # Dynamic-schema wrappers (replay traces, scripted sources) only
        # know their schema at runtime.
        report.add("GSN108",
                   f"wrapper {name!r} has a runtime-determined schema",
                   location=context, source=source)
        return None


def _infer_source_query(src: StreamSourceSpec,
                        wrapper_schema: Optional[StreamSchema],
                        report: Report, source: str, context: str
                        ) -> Optional[RelSchema]:
    statement = _parse(src.query, f"{context} source query", report, source)
    if statement is None:
        return None
    illegal = statement_tables(statement) - {WRAPPER_TABLE}
    if illegal:
        report.add("GSN102",
                   f"source query may only read WRAPPER, found "
                   f"{sorted(illegal)}", location=context, source=source)
        return None
    if wrapper_schema is None:
        return None
    tables = {WRAPPER_TABLE: wrapper_relation_schema(wrapper_schema)}
    return infer_output_schema(statement, tables, report,
                               f"{context} source query", source)


def _parse(sql: str, context: str, report: Report,
           source: str) -> Optional[SelectStatement]:
    try:
        statement = parse_select(sql)
        plan_select(statement)  # catches planner-level errors too
        return statement
    except SQLError as exc:
        report.add("GSN100", f"{context}: {exc}", location=context,
                   source=source)
        return None


def _check_output(descriptor: VirtualSensorDescriptor,
                  inferred: RelSchema, declared: RelSchema,
                  report: Report, source: str, context: str) -> None:
    produced = {name: dtype for name, dtype in inferred.items()
                if name != TIMED_FIELD}
    for name, declared_type in declared.items():
        if name not in produced:
            report.add("GSN105",
                       f"declared output field {name!r} is never produced "
                       f"by the stream query (will always be NULL); "
                       f"query produces: {', '.join(produced) or '(none)'}",
                       location=context, source=source)
            continue
        produced_type = produced[name]
        if produced_type is None:
            continue
        problem = _output_mismatch(produced_type, declared_type)
        if problem:
            report.add("GSN107",
                       f"output field {name!r}: {problem}",
                       location=context, source=source)
    for name in produced:
        if name not in declared:
            report.add("GSN106",
                       f"query column {name!r} is not in the "
                       f"output-structure and will be dropped",
                       location=context, source=source)


def _output_mismatch(produced: DataType,
                     declared: DataType) -> Optional[str]:
    """A message when a produced value can never (or suspiciously) coerce
    into the declared field type; ``None`` when compatible."""
    numeric = {DataType.INTEGER, DataType.DOUBLE, DataType.TIMESTAMP,
               DataType.BOOLEAN}
    if declared is DataType.VARCHAR:
        return None  # everything renders as text
    if declared is DataType.BINARY:
        if produced in (DataType.BINARY, DataType.VARCHAR):
            return None
        return (f"query produces {produced.value}, which cannot convert "
                f"to binary")
    if declared is DataType.BOOLEAN:
        if produced in (DataType.BOOLEAN, DataType.INTEGER,
                        DataType.VARCHAR):
            return None
        return (f"query produces {produced.value}, which cannot convert "
                f"to boolean")
    # declared is numeric (integer / double / timestamp)
    if produced in numeric:
        return None
    return (f"query produces {produced.value} but the field is declared "
            f"{declared.value}")


# --------------------------------------------------------------------------
# Pass 2: dependency-graph analysis
# --------------------------------------------------------------------------

def _matches(predicates: Dict[str, str],
             producer: VirtualSensorDescriptor) -> bool:
    published = {k.lower(): str(v).lower()
                 for k, v in producer.discovery_predicates.items()}
    return all(published.get(k.lower()) == str(v).lower()
               for k, v in predicates.items())


def _make_resolver(descriptors: Sequence[VirtualSensorDescriptor]
                   ) -> RemoteResolver:
    def resolve(predicates: Dict[str, str]) -> Optional[StreamSchema]:
        matches = [d for d in descriptors if _matches(predicates, d)]
        if len(matches) == 1:
            return matches[0].output_structure
        return None
    return resolve


def _graph_pass(pairs: List[Tuple[VirtualSensorDescriptor, str]],
                report: Report, external_producers: bool) -> None:
    descriptors = [d for d, __ in pairs]
    edges: Dict[str, List[str]] = {d.name: [] for d in descriptors}

    for descriptor, source in pairs:
        for stream in descriptor.input_streams:
            for src in stream.sources:
                if src.address.wrapper != "remote":
                    continue
                context = (f"{descriptor.name}/{stream.name}/{src.alias}")
                predicates = dict(src.address.predicates)
                matches = [d for d in descriptors
                           if _matches(predicates, d)]
                for match in matches:
                    edges[descriptor.name].append(match.name)
                if len(matches) > 1 and not external_producers:
                    report.add("GSN203",
                               f"remote source matches "
                               f"{len(matches)} producers: "
                               f"{sorted(d.name for d in matches)}",
                               location=context, source=source)
                if matches or external_producers:
                    continue
                named = predicates.get("name", "").lower()
                by_name = next((d for d in descriptors
                                if d.name == named), None)
                if by_name is not None:
                    conflicting = sorted(
                        k for k, v in predicates.items()
                        if str(by_name.discovery_predicates.get(k, "")
                               ).lower() != str(v).lower()
                    )
                    report.add(
                        "GSN204",
                        f"predicates name sensor {named!r} but conflict "
                        f"with its addressing on key(s) {conflicting}",
                        location=context, source=source)
                else:
                    report.add(
                        "GSN202",
                        f"no producer in this deployment set matches "
                        f"predicates {predicates}",
                        location=context, source=source)

    sources_by_name = {d.name: s for d, s in pairs}
    for cycle in _find_cycles(edges):
        anchor = cycle[0]
        report.add("GSN201",
                   "dependency cycle: " + " -> ".join(cycle + [anchor]),
                   location=anchor,
                   source=sources_by_name.get(anchor, ""))


def _find_cycles(edges: Dict[str, List[str]]) -> List[List[str]]:
    """Elementary cycles via DFS; each cycle reported once, anchored at
    its lexicographically smallest node."""
    cycles: List[List[str]] = []
    seen_keys = set()

    def dfs(node: str, path: List[str], on_path: Dict[str, int]) -> None:
        for neighbour in edges.get(node, ()):
            if neighbour in on_path:
                cycle = path[on_path[neighbour]:]
                anchor = min(cycle)
                index = cycle.index(anchor)
                normalized = tuple(cycle[index:] + cycle[:index])
                if normalized not in seen_keys:
                    seen_keys.add(normalized)
                    cycles.append(list(normalized))
            elif neighbour not in visited:
                visited.add(neighbour)
                on_path[neighbour] = len(path)
                dfs(neighbour, path + [neighbour], on_path)
                del on_path[neighbour]

    visited: set = set()
    for start in sorted(edges):
        if start not in visited:
            visited.add(start)
            dfs(start, [start], {start: 0})
    return cycles


# --------------------------------------------------------------------------
# Pass 3: resource estimation
# --------------------------------------------------------------------------

def _row_bytes(schema: Optional[StreamSchema],
               src: StreamSourceSpec) -> int:
    if schema is None:
        return 128  # unknown schema: assume a modest row
    total = _FIELD_BYTES[DataType.TIMESTAMP]  # implicit timed
    for field in schema:
        size = _FIELD_BYTES[field.type]
        if field.type is DataType.BINARY:
            for key in ("image-size", "size", "payload-size"):
                if key in src.address.predicates:
                    try:
                        size = int(src.address.predicates[key])
                    except ValueError:
                        pass
                    break
        total += size
    return total


def _source_interval_ms(src: StreamSourceSpec) -> int:
    try:
        interval = int(src.address.predicates.get("interval", "1000"))
    except ValueError:
        return 1000
    return max(interval, 1)


def estimate_window_memory(src: StreamSourceSpec,
                           schema: Optional[StreamSchema]
                           ) -> Tuple[int, int]:
    """``(elements, bytes)`` bound for one source's window."""
    kind, amount = parse_window_spec(src.storage_size or "1")
    if kind == "count":
        elements = amount
    else:
        per_element = _source_interval_ms(src)
        elements = max(
            1, math.ceil(amount / per_element * src.sampling_rate)
        )
    return elements, elements * (_row_bytes(schema, src)
                                 + _ELEMENT_OVERHEAD)


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"


def _resource_pass(descriptor: VirtualSensorDescriptor,
                   wrapper_schemas: Dict[Tuple[str, str],
                                         Optional[StreamSchema]],
                   report: Report, source: str,
                   memory_budget: int) -> None:
    unbounded_history = (descriptor.storage.permanent
                         and descriptor.storage.history_size is None)
    if unbounded_history:
        report.add("GSN302",
                   "permanent-storage without a size bound grows without "
                   "limit, on disk and in memory; declare <storage size=...>",
                   location=descriptor.name, source=source)

    for stream in descriptor.input_streams:
        for src in stream.sources:
            context = f"{descriptor.name}/{stream.name}/{src.alias}"
            try:
                kind, amount = parse_window_spec(src.storage_size or "1")
            except GSNError:
                continue  # validation already reported it
            if kind == "count" and amount > HUGE_COUNT_WINDOW:
                report.add("GSN304",
                           f"count window of {amount} elements is "
                           f"suspiciously large", location=context,
                           source=source)
            elements, estimate = estimate_window_memory(
                src, wrapper_schemas.get((stream.name, src.alias))
            )
            if estimate > memory_budget:
                report.add(
                    "GSN301",
                    f"window bound is ~{elements} elements "
                    f"(~{_format_bytes(estimate)}), above the "
                    f"{_format_bytes(memory_budget)} budget; shrink "
                    f"storage-size or lower sampling-rate",
                    location=context, source=source)
            if unbounded_history and src.slide is None:
                report.add(
                    "GSN303",
                    "unbounded permanent history fed at full trigger "
                    "rate; add a slide or bound the storage size",
                    location=context, source=source)
            if src.address.wrapper == "remote" \
                    and src.disconnect_buffer == 0:
                report.add(
                    "GSN305",
                    "remote source with disconnect-buffer=0 loses "
                    "elements across network outages",
                    location=context, source=source)


# --------------------------------------------------------------------------
# Line anchoring (unified JSON finding schema)
# --------------------------------------------------------------------------

def attach_descriptor_lines(report: Report,
                            line_indexes: Dict[str, Dict[tuple, int]]
                            ) -> None:
    """Anchor descriptor findings to file lines, in place.

    ``line_indexes`` maps a finding ``source`` (the descriptor file path)
    to the index built by
    :func:`repro.descriptors.xml_io.descriptor_line_index`. Findings
    whose location resolves gain a ``:<line>`` suffix, which is exactly
    what :attr:`~repro.analysis.rules.Finding.line` parses — after this,
    descriptor findings carry the same ``path``/``line``/``suppression``
    JSON fields as the Python-source passes (GSN4xx–GSN6xx).
    """
    for position, finding in enumerate(report.findings):
        index = line_indexes.get(finding.source)
        if not index or not finding.location or finding.line:
            continue
        line = _descriptor_line(finding.location, index)
        if line:
            report.findings[position] = replace(
                finding, location=f"{finding.location}:{line}"
            )


def _descriptor_line(location: str, index: Dict[tuple, int]) -> int:
    """Resolve a finding location (``name[/stream[/alias]]`` plus an
    optional `` source query``/`` stream query`` suffix) to a line."""
    text = location
    suffix = None
    for tail, kind in ((" source query", "source-query"),
                       (" stream query", "stream-query")):
        if text.endswith(tail):
            text = text[: -len(tail)]
            suffix = kind
            break
    parts = text.split("/")
    candidates: List[tuple] = []
    if len(parts) == 3:
        if suffix == "source-query":
            candidates.append(("source-query", parts[1], parts[2]))
        candidates.append(("stream-source", parts[1], parts[2]))
    elif len(parts) == 2:
        if suffix == "stream-query":
            candidates.append(("stream-query", parts[1]))
        candidates.append(("input-stream", parts[1]))
    elif len(parts) == 1:
        candidates.append(("virtual-sensor",))
    for key in candidates:
        line = index.get(key, 0)
        if line:
            return line
    return 0
