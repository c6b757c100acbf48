"""gsn-plan: offline query-plan analysis (rules GSN7xx).

The sensor decides each per-source query's fast path when it attaches
it, and a delta state that later hits a value it cannot fold poisons
itself. This linter predicts both before anything is deployed
(``gsn-lint --plan``, ``deploy(strict=True)``). For every per-source
and output query of a descriptor it builds the logical plan tree and
annotates each node with

(a) the inferred schema (:mod:`repro.analysis.schema_infer`),
(b) a cardinality/cost estimate derived from declared window sizes and
    sampling rates, and
(c) a **fast-path eligibility verdict** — eligible, or ineligible with a
    stable reason from the taxonomy of
    :mod:`repro.sqlengine.incremental`, decided by the same classifier
    and missing-column check the sensor attaches with.

Rules:

- ``GSN701`` — source query statically ineligible for the incremental
  path (warning; carries the taxonomy reason).
- ``GSN702`` — join without equi-condition (cross product) whose
  estimated cardinality blows past :data:`CROSS_PRODUCT_ROW_LIMIT`.
- ``GSN703`` — ORDER BY without LIMIT over a very large input.
- ``GSN704`` — estimated per-trigger cost exceeds the source's
  sampling-rate budget (the sensor provably can't keep up).
- ``GSN705`` — provably dead predicate (always-false/NULL WHERE,
  contradictory constant comparisons).

The cost model only flags what it can bound: unknown cardinalities
propagate as ``None`` and suppress the threshold rules, mirroring the
schema pass's "prove it or stay silent" posture.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.descriptors.model import VirtualSensorDescriptor
from repro.exceptions import GSNError, SQLError
from repro.gsntime.duration import parse_window_spec
from repro.sqlengine.ast_nodes import (
    BetweenExpr, BinaryOp, ColumnRef, InExpr, IsNullExpr, LikeExpr,
    Literal, Node, UnaryOp,
)
from repro.sqlengine.executor import _truthy
from repro.sqlengine.explain import expression_to_sql, explain_plan
from repro.sqlengine.incremental import (
    Classified, GroupedAggregateQuery, IdentityQuery, INELIGIBILITY_REASONS,
    TopOneQuery,
    REASON_CONSTANT_SOURCE, REASON_DISTINCT,
    REASON_EXPRESSION_ARGUMENT, REASON_HAVING,
    REASON_JOIN, REASON_LIMIT_OFFSET, REASON_NON_INCREMENTAL_FUNCTION,
    REASON_ORDER_BY, REASON_PROJECTION, REASON_SET_OPERATION,
    REASON_SUBQUERY, REASON_TYPE_RISK,
    REASON_UNKNOWN_COLUMN, REASON_UNKNOWN_SCHEMA, REASON_WHERE,
    classify_join, classify_with_reason, missing_columns,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import (
    HashJoinPlan, NestedLoopJoinPlan, Plan, ScanPlan, SelectPlan,
    SubqueryScanPlan, plan_select,
)
from repro.sqlengine.rewriter import WRAPPER_TABLE
from repro.wrappers.registry import WrapperRegistry

from repro.analysis.passes import (
    RemoteResolver, _derive_wrapper_schemas, _source_interval_ms,
    estimate_window_memory,
)
from repro.analysis.rules import Report
from repro.analysis.schema_infer import (
    RelSchema, infer_output_schema, wrapper_relation_schema,
)

SourceKey = Tuple[str, str]

#: GSN704 budget: rows the engine is assumed able to touch per second.
COST_BUDGET_ROWS_PER_SECOND = 2_000_000

#: GSN702 threshold: estimated rows out of a non-equi join.
CROSS_PRODUCT_ROW_LIMIT = 250_000

#: GSN703 threshold: sorting more than this without a LIMIT is flagged.
SORT_ROW_LIMIT = 100_000

_REASON_DETAILS = {
    REASON_SET_OPERATION: "set operations require full re-evaluation",
    REASON_HAVING: "HAVING filters grouped results",
    REASON_ORDER_BY: "only ORDER BY over plain columns with LIMIT 1 is "
                     "delta-maintained (no ordinals, expressions or "
                     "aggregates)",
    REASON_DISTINCT: "distinctness needs multiset bookkeeping",
    REASON_LIMIT_OFFSET: "only LIMIT 1 without OFFSET, under an ORDER BY, "
                         "is delta-maintained",
    REASON_JOIN: "only two-source inner equi-joins are delta-"
                 "maintained; this join shape re-executes per trigger",
    REASON_SUBQUERY: "subqueries are re-executed per trigger",
    REASON_CONSTANT_SOURCE: "no window relation to maintain",
    REASON_WHERE: "the WHERE shape is not row-local over the window",
    REASON_PROJECTION: "only SELECT *, aggregate lists, grouped "
                       "column/aggregate lists, or * and plain columns "
                       "under ORDER BY ... LIMIT 1 qualify",
    REASON_NON_INCREMENTAL_FUNCTION:
        "aggregate outside count/sum/avg/min/max",
    REASON_EXPRESSION_ARGUMENT:
        "aggregate arguments and GROUP BY keys must be plain columns",
}


@dataclass(frozen=True)
class PlanVerdict:
    """The static fast-path decision for one query."""

    eligible: bool
    reason: Optional[str] = None     # a taxonomy constant when ineligible
    detail: str = ""

    def __post_init__(self) -> None:
        if self.reason is not None \
                and self.reason not in INELIGIBILITY_REASONS:
            raise ValueError(f"unknown ineligibility reason {self.reason!r}")

    def as_dict(self) -> Dict[str, object]:
        return {"eligible": self.eligible, "reason": self.reason,
                "detail": self.detail}


@dataclass
class NodeAnnotation:
    """Per-plan-node analysis result (cardinality, cost, schema)."""

    rows: Optional[float] = None     # estimated output rows (None=unknown)
    cost: Optional[float] = None     # cumulative rows touched (None=unknown)
    schema: Optional[RelSchema] = None
    sort_rows: Optional[float] = None  # input rows to ORDER BY, if any
    note: str = ""                   # eligibility note on the root node

    def render(self) -> str:
        bits = []
        if self.rows is not None:
            bits.append(f"rows~{_fmt(self.rows)}")
        if self.cost is not None:
            bits.append(f"cost~{_fmt(self.cost)}")
        if self.note:
            bits.append(self.note)
        return f"[{', '.join(bits)}]" if bits else ""


def _fmt(value: float) -> str:
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e15:
        return str(int(round(value)))
    return format(value, ".3g")


class AnnotatedPlan:
    """A logical plan plus the annotation attached to every node."""

    def __init__(self, plan: SelectPlan,
                 annotations: Dict[int, NodeAnnotation]) -> None:
        self.plan = plan
        self._annotations = annotations

    def annotation(self, node: Plan) -> Optional[NodeAnnotation]:
        return self._annotations.get(id(node))

    def annotator(self, node: Plan) -> Optional[str]:
        """The :func:`~repro.sqlengine.explain.explain_plan` hook."""
        annotation = self._annotations.get(id(node))
        return annotation.render() if annotation is not None else None

    def render(self) -> str:
        return explain_plan(self.plan, annotator=self.annotator)


# --------------------------------------------------------------------------
# Cardinality / cost estimation
# --------------------------------------------------------------------------

def annotate_plan(plan: SelectPlan,
                  table_rows: Optional[Dict[str, float]] = None,
                  table_schemas: Optional[Dict[str, RelSchema]] = None,
                  output_schema: Optional[RelSchema] = None
                  ) -> AnnotatedPlan:
    """Annotate every node of ``plan`` with cardinality and cost.

    ``table_rows`` bounds base-table cardinality (window element counts
    at deploy time, live relation sizes for EXPLAIN ANALYZE-style use);
    missing tables propagate as unknown. ``table_schemas`` attaches
    relation schemas to the scans; ``output_schema`` to the root.
    """
    annotations: Dict[int, NodeAnnotation] = {}
    root = _annotate_select(plan, dict(table_rows or {}),
                            dict(table_schemas or {}), annotations)
    if output_schema is not None:
        root.schema = output_schema
    return AnnotatedPlan(plan, annotations)


def _mul(*values: Optional[float]) -> Optional[float]:
    product = 1.0
    for value in values:
        if value is None:
            return None
        product *= value
    return product


def _add(*values: Optional[float]) -> Optional[float]:
    total = 0.0
    for value in values:
        if value is None:
            return None
        total += value
    return total


def _annotate_select(plan: SelectPlan, table_rows: Dict[str, float],
                     table_schemas: Dict[str, RelSchema],
                     annotations: Dict[int, NodeAnnotation]
                     ) -> NodeAnnotation:
    if plan.source is not None:
        source = _annotate_source(plan.source, table_rows, table_schemas,
                                  annotations)
        rows, cost = source.rows, source.cost
    else:
        rows, cost = 1.0, 1.0

    if plan.where is not None:
        cost = _add(cost, rows)
        rows = _mul(rows, _selectivity(plan.where))
    if plan.is_aggregate:
        cost = _add(cost, rows)
        if plan.group_by:
            # Distinct-group estimate without statistics: sqrt(n) groups.
            rows = None if rows is None else max(1.0, math.sqrt(rows))
        else:
            rows = 1.0
    if plan.having is not None:
        rows = _mul(rows, 0.5)
    if plan.distinct:
        cost = _add(cost, rows)

    for __, __, right in plan.set_operations:
        inner = _annotate_select(right, table_rows, table_schemas,
                                 annotations)
        rows = _add(rows, inner.rows)
        cost = _add(cost, inner.cost)

    sort_rows: Optional[float] = None
    if plan.order_by:
        sort_rows = rows
        cost = _add(cost, None if rows is None
                    else rows * math.log2(max(rows, 2.0)))
    if plan.offset is not None and rows is not None:
        rows = max(0.0, rows - plan.offset)
    if plan.limit is not None and rows is not None:
        rows = min(rows, float(plan.limit))

    annotation = NodeAnnotation(rows=rows, cost=cost, sort_rows=sort_rows)
    annotations[id(plan)] = annotation
    return annotation


def _annotate_source(node: Plan, table_rows: Dict[str, float],
                     table_schemas: Dict[str, RelSchema],
                     annotations: Dict[int, NodeAnnotation]
                     ) -> NodeAnnotation:
    if isinstance(node, ScanPlan):
        rows = table_rows.get(node.table)
        if rows is None:
            rows = table_rows.get(node.binding)
        schema = table_schemas.get(node.table)
        if schema is None:
            schema = table_schemas.get(node.binding)
        annotation = NodeAnnotation(rows=rows, cost=rows, schema=schema)
    elif isinstance(node, SubqueryScanPlan):
        inner = _annotate_select(node.plan, table_rows, table_schemas,
                                 annotations)
        annotation = NodeAnnotation(rows=inner.rows, cost=inner.cost,
                                    schema=inner.schema)
    elif isinstance(node, HashJoinPlan):
        left = _annotate_source(node.left, table_rows, table_schemas,
                                annotations)
        right = _annotate_source(node.right, table_rows, table_schemas,
                                 annotations)
        rows = _mul(left.rows, right.rows, 0.1)
        if node.residual is not None:
            rows = _mul(rows, _selectivity(node.residual))
        # Build + probe: each input is touched once beyond its own cost.
        cost = _add(left.cost, right.cost, left.rows, right.rows)
        annotation = NodeAnnotation(rows=rows, cost=cost)
    elif isinstance(node, NestedLoopJoinPlan):
        left = _annotate_source(node.left, table_rows, table_schemas,
                                annotations)
        right = _annotate_source(node.right, table_rows, table_schemas,
                                 annotations)
        pairs = _mul(left.rows, right.rows)
        selectivity = (1.0 if node.condition is None
                       else _selectivity(node.condition))
        rows = _mul(pairs, selectivity)
        cost = _add(left.cost, right.cost, pairs)
        annotation = NodeAnnotation(rows=rows, cost=cost)
    else:
        annotation = NodeAnnotation()
    annotations[id(node)] = annotation
    return annotation


def _selectivity(node: Node) -> float:
    """Textbook predicate selectivity without statistics."""
    if isinstance(node, BinaryOp):
        if node.op == "and":
            return _selectivity(node.left) * _selectivity(node.right)
        if node.op == "or":
            left = _selectivity(node.left)
            right = _selectivity(node.right)
            return min(1.0, left + right - left * right)
        if node.op in ("=", "=="):
            return 0.1
        if node.op in ("<", "<=", ">", ">="):
            return 0.3
        if node.op in ("!=", "<>"):
            return 0.9
        return 0.5
    if isinstance(node, UnaryOp) and node.op == "not":
        return max(0.0, 1.0 - _selectivity(node.operand))
    if isinstance(node, BetweenExpr):
        return 0.7 if node.negated else 0.3
    if isinstance(node, LikeExpr):
        return 0.75 if node.negated else 0.25
    if isinstance(node, IsNullExpr):
        return 0.9 if node.negated else 0.1
    if isinstance(node, InExpr):
        if node.options:
            base = min(1.0, 0.1 * len(node.options))
            return 1.0 - base if node.negated else base
        return 0.5
    return 0.5


# --------------------------------------------------------------------------
# Constant folding (GSN705)
# --------------------------------------------------------------------------

_UNDECIDED = object()

_COMPARE = {
    "=": operator.eq, "==": operator.eq,
    "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _comparable_values(left: object, right: object) -> bool:
    if _is_number(left) and _is_number(right):
        return True
    return type(left) is type(right)


def fold_constant(node: Node) -> object:
    """Evaluate an expression over literals; :data:`_UNDECIDED` when the
    value depends on row data (or on semantics this folder won't model).
    ``None`` models SQL NULL with Kleene three-valued and/or."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, UnaryOp):
        value = fold_constant(node.operand)
        if value is _UNDECIDED:
            return _UNDECIDED
        if node.op == "not":
            return None if value is None else not _truthy(value)
        if value is None:
            return None
        if not _is_number(value):
            return _UNDECIDED
        return -value if node.op == "-" else value
    if isinstance(node, BinaryOp):
        return _fold_binary(node)
    if isinstance(node, BetweenExpr):
        operand = fold_constant(node.operand)
        low = fold_constant(node.low)
        high = fold_constant(node.high)
        if _UNDECIDED in (operand, low, high):
            return _UNDECIDED
        if operand is None or low is None or high is None:
            return None
        if not (_comparable_values(operand, low)
                and _comparable_values(operand, high)):
            return _UNDECIDED
        try:
            inside = low <= operand <= high
        except TypeError:
            return _UNDECIDED
        return not inside if node.negated else inside
    if isinstance(node, InExpr) and node.subquery is None:
        operand = fold_constant(node.operand)
        options = [fold_constant(option) for option in node.options or ()]
        if operand is _UNDECIDED or _UNDECIDED in options:
            return _UNDECIDED
        if operand is None:
            return None
        hit = any(option is not None
                  and _comparable_values(operand, option)
                  and operand == option
                  for option in options)
        if hit:
            return not node.negated
        if any(option is None for option in options):
            return None
        return node.negated
    if isinstance(node, IsNullExpr):
        value = fold_constant(node.operand)
        if value is _UNDECIDED:
            return _UNDECIDED
        result = value is None
        return not result if node.negated else result
    return _UNDECIDED


def _fold_binary(node: BinaryOp) -> object:
    op = node.op
    if op in ("and", "or"):
        left = _tri(fold_constant(node.left))
        right = _tri(fold_constant(node.right))
        if op == "and":
            if left is False or right is False:
                return False
            if left is _UNDECIDED or right is _UNDECIDED:
                return _UNDECIDED
            return None if (left is None or right is None) else True
        if left is True or right is True:
            return True
        if left is _UNDECIDED or right is _UNDECIDED:
            return _UNDECIDED
        return None if (left is None or right is None) else False

    left = fold_constant(node.left)
    right = fold_constant(node.right)
    if left is _UNDECIDED or right is _UNDECIDED:
        return _UNDECIDED
    if left is None or right is None:
        return None
    if op in _COMPARE:
        if not _comparable_values(left, right):
            return _UNDECIDED
        try:
            return _COMPARE[op](left, right)
        except TypeError:
            return _UNDECIDED
    if op in ("+", "-", "*", "/", "%"):
        if not (_is_number(left) and _is_number(right)):
            return _UNDECIDED
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right
            return left % right
        except (ZeroDivisionError, TypeError, ValueError):
            return _UNDECIDED
    return _UNDECIDED


def _tri(value: object) -> object:
    """Collapse a folded value to Kleene True/False/None (or undecided)."""
    if value is _UNDECIDED or value is None:
        return value
    return _truthy(value)


def dead_predicate(where: Optional[Node]) -> Optional[str]:
    """A message when ``where`` provably rejects every row, else None."""
    if where is None:
        return None
    value = fold_constant(where)
    if value is not _UNDECIDED:
        if value is None:
            return "WHERE folds to NULL; no row ever passes"
        if not _truthy(value):
            return f"WHERE folds to the constant {value!r}"
        return None
    return _contradictory_ranges(where)


def _conjuncts(node: Node) -> List[Node]:
    if isinstance(node, BinaryOp) and node.op == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "=="}


def _contradictory_ranges(where: Node) -> Optional[str]:
    """Detect per-column interval contradictions among numeric constant
    conjuncts (``x > 5 and x < 3``, ``x between 9 and 2``, ...)."""
    # column key -> [lower, lower_strict, upper, upper_strict]
    bounds: Dict[Tuple[Optional[str], str], List[object]] = {}

    def tighten(ref: ColumnRef, op: str, value: float) -> None:
        entry = bounds.setdefault((ref.table, ref.name),
                                  [None, False, None, False])
        if op in ("=", "=="):
            tighten(ref, ">=", value)
            tighten(ref, "<=", value)
            return
        if op in (">", ">="):
            strict = op == ">"
            if entry[0] is None or value > entry[0] \
                    or (value == entry[0] and strict):
                entry[0], entry[1] = value, strict
        else:
            strict = op == "<"
            if entry[2] is None or value < entry[2] \
                    or (value == entry[2] and strict):
                entry[2], entry[3] = value, strict

    for conjunct in _conjuncts(where):
        if isinstance(conjunct, BinaryOp) and conjunct.op in _FLIP:
            left, right, op = conjunct.left, conjunct.right, conjunct.op
            if isinstance(left, ColumnRef) and isinstance(right, Literal) \
                    and _is_number(right.value):
                tighten(left, op, right.value)
            elif isinstance(right, ColumnRef) and isinstance(left, Literal) \
                    and _is_number(left.value):
                tighten(right, _FLIP[op], left.value)
        elif isinstance(conjunct, BetweenExpr) and not conjunct.negated \
                and isinstance(conjunct.operand, ColumnRef) \
                and isinstance(conjunct.low, Literal) \
                and isinstance(conjunct.high, Literal) \
                and _is_number(conjunct.low.value) \
                and _is_number(conjunct.high.value):
            if conjunct.low.value > conjunct.high.value:
                return (f"BETWEEN {_fmt(conjunct.low.value)} AND "
                        f"{_fmt(conjunct.high.value)} is empty")
            tighten(conjunct.operand, ">=", conjunct.low.value)
            tighten(conjunct.operand, "<=", conjunct.high.value)

    for (table, name), (low, low_strict, high, high_strict) in \
            bounds.items():
        if low is None or high is None:
            continue
        if low > high or (low == high and (low_strict or high_strict)):
            column = f"{table}.{name}" if table else name
            return (f"contradictory constraints on {column!r}: "
                    f"requires {'>' if low_strict else '>='} {_fmt(low)} "
                    f"and {'<' if high_strict else '<='} {_fmt(high)}")
    return None


def _division_risk(node: Node) -> bool:
    """Whether evaluating ``node`` may divide by zero (which would poison
    a running accumulator mid-stream)."""
    for sub in node.walk():
        if isinstance(sub, BinaryOp) and sub.op in ("/", "%"):
            divisor = sub.right
            if not (isinstance(divisor, Literal)
                    and _is_number(divisor.value)
                    and divisor.value != 0):
                return True
    return False


# --------------------------------------------------------------------------
# Fast-path verdicts
# --------------------------------------------------------------------------

def structural_verdict(plan: SelectPlan) -> PlanVerdict:
    """The window- and schema-agnostic half of the verdict: is the query
    *shape* incrementally maintainable at all?"""
    classified, reason = classify_with_reason(plan)
    if classified is None:
        assert reason is not None
        if reason == REASON_JOIN and classify_join(plan) is not None:
            return PlanVerdict(True, None,
                               "delta-maintained two-source equi-join")
        return PlanVerdict(False, reason, _REASON_DETAILS.get(reason, ""))
    return PlanVerdict(True, None, _eligible_detail(classified))


def _eligible_detail(classified: Classified) -> str:
    if isinstance(classified, IdentityQuery):
        return "identity: the window relation is the answer"
    if isinstance(classified, GroupedAggregateQuery):
        return (f"grouped: {len(classified.items)} running "
                f"accumulator(s) per group")
    if isinstance(classified, TopOneQuery):
        return (f"top-1: the best row by {len(classified.order)} ORDER BY "
                f"key(s), kept by a monotone deque")
    return f"{len(classified.items)} running accumulator(s)"


def source_query_verdict(plan: SelectPlan, window_kind: str,
                         wrapper_schema: Optional[RelSchema]) -> PlanVerdict:
    """The offline verdict for one per-source query.

    Mirrors :meth:`VirtualSensor._attach_fast_path` exactly: the same
    :func:`classify_with_reason`, identity queries attach over any
    window, and delta states (flat or grouped accumulators, the top-1
    row) need every referenced column present in the window, by the
    same :func:`missing_columns`. On top of that, anything the state
    could *poison* on (type mismatches, division by a data-dependent
    divisor) is rejected as ``type-risk`` so that an eligible verdict
    is a no-poison proof.
    """
    classified, reason = classify_with_reason(plan)
    if classified is None:
        assert reason is not None
        return PlanVerdict(False, reason, _REASON_DETAILS.get(reason, ""))
    if isinstance(classified, IdentityQuery):
        return PlanVerdict(True, None,
                           "identity: the window relation is the answer")
    if wrapper_schema is None:
        return PlanVerdict(False, REASON_UNKNOWN_SCHEMA,
                           "wrapper schema not statically derivable; "
                           "the runtime decides at attach time")
    missing = missing_columns(classified, wrapper_schema)
    if missing:
        return PlanVerdict(False, REASON_UNKNOWN_COLUMN,
                           f"column(s) {', '.join(missing)} not in the "
                           f"wrapper relation")
    scratch = Report()
    infer_output_schema(plan.statement, {WRAPPER_TABLE: wrapper_schema},
                        scratch, "", "")
    for finding in scratch.errors:
        if finding.rule_id in ("GSN101", "GSN102"):
            return PlanVerdict(False, REASON_UNKNOWN_COLUMN,
                               finding.message)
        return PlanVerdict(False, REASON_TYPE_RISK, finding.message)
    if classified.where is not None and _division_risk(classified.where):
        return PlanVerdict(False, REASON_TYPE_RISK,
                           "WHERE divides by a data-dependent divisor "
                           "(poisons on zero)")
    return PlanVerdict(True, None, _eligible_detail(classified))


# --------------------------------------------------------------------------
# Descriptor-level pass
# --------------------------------------------------------------------------

@dataclass
class SourcePlanInfo:
    """Everything gsn-plan derived for one per-source query."""

    stream: str
    alias: str
    query: str
    plan: SelectPlan
    annotated: AnnotatedPlan
    verdict: PlanVerdict
    window_kind: str
    window_elements: Optional[int]


@dataclass
class StreamPlanInfo:
    """Everything gsn-plan derived for one output (stream) query."""

    stream: str
    query: str
    plan: SelectPlan
    annotated: AnnotatedPlan
    verdict: PlanVerdict        # structural only: output queries always
                                # run per trigger over the temporaries


@dataclass
class DescriptorPlan:
    """The gsn-plan result for one descriptor."""

    name: str
    sources: Dict[SourceKey, SourcePlanInfo] = field(default_factory=dict)
    streams: Dict[str, StreamPlanInfo] = field(default_factory=dict)

    @property
    def verdicts(self) -> Dict[SourceKey, PlanVerdict]:
        return {key: info.verdict for key, info in self.sources.items()}

    def coverage(self) -> Tuple[int, int]:
        """``(eligible, total)`` over the per-source queries."""
        eligible = sum(1 for info in self.sources.values()
                       if info.verdict.eligible)
        return eligible, len(self.sources)

    def render(self) -> str:
        """All annotated plans, EXPLAIN-style (the ``--plan`` output)."""
        sections: List[str] = []
        for (stream, alias), info in self.sources.items():
            sections.append(f"-- {self.name}/{stream}/{alias} "
                            f"source query: {info.query}")
            sections.append(info.annotated.render())
        for stream, info in self.streams.items():
            sections.append(f"-- {self.name}/{stream} "
                            f"stream query: {info.query}")
            sections.append(info.annotated.render())
        return "\n".join(sections)


def plan_descriptor(descriptor: VirtualSensorDescriptor,
                    registry: Optional[WrapperRegistry] = None,
                    report: Optional[Report] = None,
                    source: str = "",
                    wrapper_schemas=None,
                    remote_resolver: Optional[RemoteResolver] = None
                    ) -> DescriptorPlan:
    """Run gsn-plan over one descriptor.

    With a ``report``, GSN701–GSN705 findings are added; without one the
    pass is silent (the manager's deploy hook uses it that way). Pass
    ``wrapper_schemas`` (from :func:`~repro.analysis.passes.analyze`) to
    avoid re-deriving them — and re-reporting GSN108/GSN109.
    """
    if wrapper_schemas is None:
        wrapper_schemas = _derive_wrapper_schemas(
            descriptor, registry, Report(), source, remote_resolver
        )
    result = DescriptorPlan(descriptor.name)

    for stream in descriptor.input_streams:
        alias_rows: Dict[str, float] = {}
        alias_schemas: Dict[str, RelSchema] = {}
        for src in stream.sources:
            key = (stream.name, src.alias)
            context = f"{descriptor.name}/{stream.name}/{src.alias}" \
                      f" source query"
            try:
                statement = parse_select(src.query)
                plan = plan_select(statement)
                window_kind, __ = parse_window_spec(src.storage_size or "1")
            except (SQLError, GSNError):
                continue  # GSN100 is the schema pass's to report
            schema = wrapper_schemas.get(key)
            rel_schema = (wrapper_relation_schema(schema)
                          if schema is not None else None)
            elements: Optional[int] = None
            try:
                elements, __ = estimate_window_memory(src, schema)
            except GSNError:
                pass

            out_schema = None
            if rel_schema is not None:
                out_schema = infer_output_schema(
                    statement, {WRAPPER_TABLE: rel_schema}, Report(),
                    context, source)
            verdict = source_query_verdict(plan, window_kind, rel_schema)
            annotated = annotate_plan(
                plan,
                table_rows=({WRAPPER_TABLE: float(elements)}
                            if elements is not None else None),
                table_schemas=({WRAPPER_TABLE: rel_schema}
                               if rel_schema is not None else None),
                output_schema=out_schema,
            )
            root = annotated.annotation(plan)
            assert root is not None
            root.note = ("fast-path: eligible" if verdict.eligible
                         else f"fast-path: ineligible ({verdict.reason})")
            info = SourcePlanInfo(stream.name, src.alias, src.query, plan,
                                  annotated, verdict, window_kind, elements)
            result.sources[key] = info
            if root.rows is not None:
                alias_rows[src.alias] = root.rows
            if out_schema is not None:
                alias_schemas[src.alias] = out_schema

            if report is not None:
                if not verdict.eligible:
                    report.add(
                        "GSN701",
                        f"source query ineligible for the incremental "
                        f"fast path ({verdict.reason}): {verdict.detail}",
                        location=context, source=source)
                _plan_rule_findings(annotated, report, source, context)
                if not verdict.eligible:
                    _budget_finding(annotated, src, report, source, context)

        context = f"{descriptor.name}/{stream.name} stream query"
        try:
            statement = parse_select(stream.query)
            plan = plan_select(statement)
        except SQLError:
            continue
        out_schema = None
        if alias_schemas.keys() >= {s.alias for s in stream.sources}:
            out_schema = infer_output_schema(statement, alias_schemas,
                                             Report(), context, source)
        annotated = annotate_plan(plan, table_rows=alias_rows,
                                  table_schemas=alias_schemas or None,
                                  output_schema=out_schema)
        verdict = structural_verdict(plan)
        root = annotated.annotation(plan)
        assert root is not None
        root.note = ("shape: incremental-capable" if verdict.eligible
                     else f"shape: {verdict.reason}")
        result.streams[stream.name] = StreamPlanInfo(
            stream.name, stream.query, plan, annotated, verdict)
        if report is not None:
            _plan_rule_findings(annotated, report, source, context)

    return result


def _plan_rule_findings(annotated: AnnotatedPlan, report: Report,
                        source: str, context: str) -> None:
    """GSN702/GSN703/GSN705 over one annotated plan tree."""
    for node in annotated.plan.walk():
        annotation = annotated.annotation(node)
        if isinstance(node, NestedLoopJoinPlan) and annotation is not None \
                and annotation.rows is not None:
            left = annotated.annotation(node.left)
            right = annotated.annotation(node.right)
            pairs = _mul(left.rows if left else None,
                         right.rows if right else None)
            if pairs is not None and pairs > CROSS_PRODUCT_ROW_LIMIT:
                shape = ("cross join" if node.condition is None
                         or node.kind == "cross"
                         else "join without an equi-condition")
                report.add(
                    "GSN702",
                    f"{shape} enumerates ~{_fmt(pairs)} row pairs per "
                    f"trigger (limit {_fmt(CROSS_PRODUCT_ROW_LIMIT)}); "
                    f"add an equality join condition",
                    location=context, source=source)
        if isinstance(node, SelectPlan):
            if node.order_by and node.limit is None \
                    and annotation is not None \
                    and annotation.sort_rows is not None \
                    and annotation.sort_rows > SORT_ROW_LIMIT:
                report.add(
                    "GSN703",
                    f"ORDER BY without LIMIT sorts ~"
                    f"{_fmt(annotation.sort_rows)} rows per trigger "
                    f"(limit {_fmt(SORT_ROW_LIMIT)}); bound the window "
                    f"or add LIMIT",
                    location=context, source=source)
            message = dead_predicate(node.where)
            if message is not None:
                rendered = expression_to_sql(node.where)
                report.add(
                    "GSN705",
                    f"predicate {rendered} is provably dead: {message}; "
                    f"the query can never return rows",
                    location=context, source=source)


def _budget_finding(annotated: AnnotatedPlan, src, report: Report,
                    source: str, context: str) -> None:
    """GSN704: legacy per-trigger cost versus the source's trigger rate."""
    root = annotated.annotation(annotated.plan)
    if root is None or root.cost is None:
        return
    interval_ms = _source_interval_ms(src)
    triggers_per_second = src.sampling_rate * 1000.0 / interval_ms
    if triggers_per_second <= 0:
        return
    load = root.cost * triggers_per_second
    if load > COST_BUDGET_ROWS_PER_SECOND:
        report.add(
            "GSN704",
            f"~{_fmt(root.cost)} rows touched per trigger at "
            f"~{_fmt(triggers_per_second)} triggers/s is "
            f"~{_fmt(load)} rows/s, above the "
            f"{_fmt(COST_BUDGET_ROWS_PER_SECOND)} rows/s budget; the "
            f"sensor cannot keep up — shrink the window, lower the "
            f"sampling rate, or make the query fast-path eligible",
            location=context, source=source)
