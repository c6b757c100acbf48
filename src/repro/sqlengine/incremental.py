"""Incremental evaluation of qualifying per-source queries.

The per-source queries of pipeline step 3 are standing queries over a
single window relation. Three common shapes don't need re-execution on
every trigger:

* **identity** — ``select * from wrapper``: the answer *is* the window
  relation, which the window's history already maintains in place
  (:mod:`repro.streams.history`).
* **simple aggregates** — ``select avg(v), count(*) from wrapper
  [where <row predicate>]``: every aggregate in ``count/sum/avg/min/max``
  is maintainable under the window's append/evict deltas with O(1)
  amortised work per element (``min``/``max`` by a
  :class:`MonotoneDeque`: windows evict in arrival order).
* **top-1** — ``select <* or columns> from wrapper [where ...] order by
  <columns> limit 1``: the best passing row, by the same deque.

:func:`classify` inspects a compiled :class:`SelectPlan` and reports
which shape (if any) applies; :class:`IncrementalAggregateState`,
:class:`GroupedAggregateState` and :class:`DeltaTopN` are the running
states, fed row deltas by a :class:`~repro.streams.history.RowHistory`.
A WHERE clause is compiled with the pipeline's ``_Emitter``
(:mod:`repro.sqlengine.physical`) over the window's row layout.

Equivalence contract: for every qualifying query the produced relation is
row-for-row identical to executing the plan against the window relation
(the property tests assert this). Queries that would *fail* when executed
(unknown columns, mixed-type sums, …) must keep failing at query time —
the states therefore never raise out of the delta callbacks; they mark
themselves unhealthy and the sensor runs the query per trigger, which
raises the executor's error. While a NaN ``min``/``max`` input or
ORDER BY key is in the window, a state's snapshot is ``None`` and the
query runs per trigger.
"""

from __future__ import annotations

import logging
import operator
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Container, Dict, FrozenSet, List, Optional, Sequence,
    Tuple, Union,
)

from repro.sqlengine.ast_nodes import (
    ColumnRef, FunctionCall, Node, SelectItem, Star, contains_aggregate,
    has_subquery,
)
from repro.sqlengine.executor import _hashable, _sort_key, _truthy
from repro.sqlengine.functions import ExactSum
from repro.sqlengine.introspect import (
    dedupe_columns, expression_columns, expression_name,
)
from repro.sqlengine.physical import (
    Unsupported, _compile_row, _desc_key, _Layout,
)
from repro.sqlengine.planner import (
    HashJoinPlan, NestedLoopJoinPlan, ScanPlan, SelectPlan,
    SubqueryScanPlan,
)
from repro.sqlengine.relation import Relation
from repro.streams.history import RowHistory, RowListener, in_window_order

logger = logging.getLogger("repro.sqlengine.incremental")

#: Called with the error when a state poisons itself.
PoisonHook = Optional[Callable[[BaseException], None]]

#: Aggregates maintainable under append/evict deltas.
INCREMENTAL_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

# -- ineligibility reason taxonomy ------------------------------------------
#
# Stable strings naming the *first* disqualifying feature found. The
# sensor records one per source that does not attach (its status
# ``static`` block); the offline linter ``repro.analysis.planpass``
# reports the same strings, so both speak one vocabulary. The set
# doubles as the worklist for extending delta maintenance.

REASON_SET_OPERATION = "set-operation"
REASON_HAVING = "having"
REASON_ORDER_BY = "order-by"
REASON_DISTINCT = "distinct"
REASON_LIMIT_OFFSET = "limit-offset"
REASON_JOIN = "join-shape"
REASON_SUBQUERY = "subquery"
REASON_CONSTANT_SOURCE = "constant-source"
REASON_WHERE = "where-clause"
REASON_PROJECTION = "projection"
REASON_NON_INCREMENTAL_FUNCTION = "non-incremental-function"
REASON_EXPRESSION_ARGUMENT = "expression-argument"
# Reasons that need the window's schema. The sensor decides
# ``unknown-column`` (see :func:`missing_columns`) and reports
# ``type-risk`` for a state that poisons while it attaches; the linter,
# which may not know the schema, adds ``unknown-schema`` and reads
# ``type-risk`` off the inferred types.
REASON_UNKNOWN_SCHEMA = "unknown-schema"
REASON_UNKNOWN_COLUMN = "unknown-column"
REASON_TYPE_RISK = "type-risk"

#: Every reason string the classifier or the plan pass may report.
INELIGIBILITY_REASONS = frozenset({
    REASON_SET_OPERATION, REASON_HAVING, REASON_ORDER_BY,
    REASON_DISTINCT, REASON_LIMIT_OFFSET, REASON_JOIN, REASON_SUBQUERY,
    REASON_CONSTANT_SOURCE, REASON_WHERE, REASON_PROJECTION,
    REASON_NON_INCREMENTAL_FUNCTION, REASON_EXPRESSION_ARGUMENT,
    REASON_UNKNOWN_SCHEMA, REASON_UNKNOWN_COLUMN,
    REASON_TYPE_RISK,
})


@dataclass(frozen=True)
class IdentityQuery:
    """``select * from wrapper`` — answerable by the window relation."""
    binding: str


@dataclass(frozen=True)
class AggregateItem:
    """One select item of a qualifying aggregate query."""
    kind: str                    # "count_star", "count", "sum", "avg", ...
    column: Optional[str]        # argument column name (None for count(*))


@dataclass(frozen=True)
class AggregateQuery:
    """A qualifying single-table aggregate query."""
    binding: str
    items: Tuple[AggregateItem, ...]
    columns: Tuple[str, ...]               # output column names, deduped
    where: Optional[Node]
    referenced: FrozenSet[str]             # every column the query reads


@dataclass(frozen=True)
class GroupedAggregateQuery(AggregateQuery):
    """A qualifying single-table GROUP BY aggregate query.

    ``keys`` are the GROUP BY column names (plain column references
    only); ``items`` may carry the extra kind ``"column"`` for plain
    column select items, which — matching the interpreter's
    ``eval_group`` — read the group's first row.
    """
    keys: Tuple[str, ...]


@dataclass(frozen=True)
class JoinQuery:
    """A qualifying two-source inner equi-join stream query.

    Wraps the full :class:`SelectPlan` (whose source is a
    :class:`HashJoinPlan` over two scans); key, residual, WHERE and
    projection functions are compiled positionally by
    :class:`IncrementalJoinState` once the two window schemas are known.
    """
    plan: SelectPlan
    left_table: str
    left_binding: str
    right_table: str
    right_binding: str


@dataclass(frozen=True)
class TopOneQuery:
    """``SELECT <* or columns> FROM wrapper [WHERE <row predicate>]
    ORDER BY <columns> LIMIT 1``: the window's best passing row."""
    binding: str
    items: Tuple[SelectItem, ...]
    order: Tuple[Tuple[ColumnRef, bool], ...]  # (key, ascending)
    where: Optional[Node]
    referenced: FrozenSet[str]

    def key_columns(self, columns: Sequence[str]) -> List[Tuple[str, bool]]:
        """Each ORDER BY key's source column and direction over a window
        of ``columns``, resolved as the pipeline's decorate stage does:
        an output column name (or alias) first, then a source column."""
        names: List[str] = []
        sources: List[str] = []
        for item in self.items:
            expr: Any = item.expression
            star = isinstance(expr, Star)
            names.extend(columns if star else [item.alias or expr.name])
            sources.extend(columns if star else [expr.name])
        positions = {name: i for i, name in enumerate(dedupe_columns(names))}
        keys = []
        for ref, ascending in self.order:
            position = positions.get(ref.name) if ref.table is None else None
            name = ref.name if position is None else sources[position]
            if name not in columns:
                raise Unsupported(f"ORDER BY {ref.name} is not a column")
            keys.append((name, ascending))
        return keys


Classified = Union[IdentityQuery, AggregateQuery, GroupedAggregateQuery,
                   TopOneQuery]


def classify(plan: SelectPlan) -> Optional[Classified]:
    """Decide whether ``plan`` qualifies for an incremental fast path.

    Returns an :class:`IdentityQuery`, an :class:`AggregateQuery`, a
    :class:`GroupedAggregateQuery`, a :class:`TopOneQuery`, or ``None``
    when only the generic executor can answer it. The check is
    deliberately conservative: any feature with semantics the states
    don't replicate exactly (joins, subqueries, DISTINCT, HAVING, ORDER
    BY other than over columns with LIMIT 1, expressions inside
    aggregates or group keys) disqualifies the plan.
    """
    return classify_with_reason(plan)[0]


def classify_with_reason(plan: SelectPlan
                         ) -> Tuple[Optional[Classified], Optional[str]]:
    """:func:`classify` plus the taxonomy reason when disqualified.

    Returns ``(classified, None)`` for qualifying plans and
    ``(None, reason)`` otherwise, where ``reason`` is one of the
    ``REASON_*`` constants naming the first disqualifying feature.
    """
    if not isinstance(plan.source, ScanPlan):
        if isinstance(plan.source, (NestedLoopJoinPlan, HashJoinPlan)):
            return None, REASON_JOIN
        if isinstance(plan.source, SubqueryScanPlan):
            return None, REASON_SUBQUERY
        return None, REASON_CONSTANT_SOURCE
    if plan.set_operations:
        return None, REASON_SET_OPERATION
    if plan.having is not None:
        return None, REASON_HAVING
    binding = plan.source.binding
    if plan.order_by or plan.limit is not None or plan.offset is not None:
        return _classify_top_one(plan, binding)
    if plan.distinct:
        return None, REASON_DISTINCT
    if not plan.is_aggregate:
        return _classify_identity(plan, binding)
    return _classify_aggregate(plan, binding)


def _classify_identity(plan: SelectPlan, binding: str
                       ) -> Tuple[Optional[IdentityQuery], Optional[str]]:
    if plan.where is not None:
        return None, REASON_WHERE
    expr = plan.items[0].expression
    if len(plan.items) != 1 or not isinstance(expr, Star) \
            or expr.table not in (None, binding):
        return None, REASON_PROJECTION
    return IdentityQuery(binding), None


def _classify_aggregate(plan: SelectPlan, binding: str
                        ) -> Tuple[Optional[Classified], Optional[str]]:
    """A flat or (with GROUP BY) grouped aggregate query."""
    keys: List[str] = []
    for expr in plan.group_by:
        if not isinstance(expr, ColumnRef) \
                or expr.table not in (None, binding):
            return None, REASON_EXPRESSION_ARGUMENT
        keys.append(expr.name)

    referenced: List[str] = list(keys)
    items: List[AggregateItem] = []
    for item in plan.items:
        expr = item.expression
        if keys and isinstance(expr, ColumnRef):
            if expr.table not in (None, binding):
                return None, REASON_PROJECTION
            parsed: Optional[AggregateItem] = AggregateItem("column",
                                                            expr.name)
        else:
            parsed, reason = _classify_item(item, binding)
            if parsed is None:
                return None, reason
        items.append(parsed)
        if parsed.column is not None:
            referenced.append(parsed.column)

    reason = _where_columns(plan, binding, referenced)
    if reason is not None:
        return None, reason

    columns = dedupe_columns([
        item.alias or expression_name(item.expression)
        for item in plan.items
    ])
    query = (binding, tuple(items), tuple(columns), plan.where,
             frozenset(referenced))
    if keys:
        return GroupedAggregateQuery(*query, keys=tuple(keys)), None
    return AggregateQuery(*query), None


def _classify_top_one(plan: SelectPlan, binding: str
                      ) -> Tuple[Optional[TopOneQuery], Optional[str]]:
    """``ORDER BY <columns> LIMIT 1`` over ``*`` or plain columns; ordinal
    or expression keys and larger limits stay on the compiled Top-N."""
    if not plan.order_by:
        return None, REASON_LIMIT_OFFSET
    if plan.is_aggregate or plan.limit is None:
        return None, REASON_ORDER_BY
    if plan.limit != 1 or plan.offset:
        return None, REASON_LIMIT_OFFSET
    if plan.distinct:
        return None, REASON_DISTINCT
    explicit = set()
    referenced: List[str] = []
    for item in plan.items:
        expr = item.expression
        if not isinstance(expr, (Star, ColumnRef)) \
                or expr.table not in (None, binding):
            return None, REASON_PROJECTION
        if isinstance(expr, ColumnRef):
            explicit.add(item.alias or expr.name)
            referenced.append(expr.name)
    order = []
    for order_item in plan.order_by:
        ref = order_item.expression
        if not isinstance(ref, ColumnRef) or ref.table not in (None, binding):
            return None, REASON_ORDER_BY
        if ref.table is not None or ref.name not in explicit:
            referenced.append(ref.name)
        order.append((ref, order_item.ascending))
    reason = _where_columns(plan, binding, referenced)
    if reason is not None:
        return None, reason
    return TopOneQuery(binding, plan.items, tuple(order), plan.where,
                       frozenset(referenced)), None


def missing_columns(classified: Union[AggregateQuery, TopOneQuery],
                    columns: Container[str]) -> List[str]:
    """The columns a delta-state query reads that ``columns`` lacks,
    sorted. Non-empty means ``unknown-column``: no state attaches and
    the executor keeps raising its error at query time."""
    return sorted(name for name in classified.referenced
                  if name not in columns)


def _where_columns(plan: SelectPlan, binding: str,
                   referenced: List[str]) -> Optional[str]:
    """Add the WHERE's columns to ``referenced``; the reason when the
    WHERE is not a row-local predicate over ``binding``."""
    if plan.where is None:
        return None
    if has_subquery(plan.where):
        return REASON_SUBQUERY
    if contains_aggregate(plan.where):
        return REASON_WHERE
    for ref in expression_columns(plan.where):
        if ref.table is not None and ref.table != binding:
            return REASON_WHERE
        referenced.append(ref.name)
    return None


def classify_join(plan: SelectPlan) -> Optional[JoinQuery]:
    """Whether ``plan`` is a delta-maintainable two-source equi-join.

    Qualifying shape: ``SELECT <row-local items> FROM a JOIN b ON
    <equi-keys> [WHERE <row-local predicate>]`` — an *inner* hash join
    of two plain scans, no aggregation and no suffix clauses. Matched
    pairs are then index-maintainable under both windows' deltas; every
    other join shape re-executes per trigger.
    """
    source = plan.source
    if not isinstance(source, HashJoinPlan) or source.kind != "inner":
        return None
    if not isinstance(source.left, ScanPlan) \
            or not isinstance(source.right, ScanPlan):
        return None
    if plan.set_operations or plan.group_by or plan.having is not None \
            or plan.order_by or plan.distinct \
            or plan.limit is not None or plan.offset is not None \
            or plan.is_aggregate:
        return None
    nodes: List[Node] = [item.expression for item in plan.items
                         if not isinstance(item.expression, Star)]
    nodes.extend(node for node in (plan.where, source.residual)
                 if node is not None)
    nodes.extend(source.left_keys)
    nodes.extend(source.right_keys)
    for node in nodes:
        if has_subquery(node) or contains_aggregate(node):
            return None
    return JoinQuery(
        plan=plan,
        left_table=source.left.table,
        left_binding=source.left.binding,
        right_table=source.right.table,
        right_binding=source.right.binding,
    )


def _classify_item(item: SelectItem, binding: str
                   ) -> Tuple[Optional[AggregateItem], Optional[str]]:
    expr = item.expression
    if not isinstance(expr, FunctionCall):
        return None, REASON_PROJECTION
    if expr.distinct:
        return None, REASON_DISTINCT
    if expr.name not in INCREMENTAL_AGGREGATES:
        return None, REASON_NON_INCREMENTAL_FUNCTION
    if expr.star:
        # Only count(*) is legal SQL; anything else must keep raising
        # through the generic path.
        if expr.name != "count":
            return None, REASON_EXPRESSION_ARGUMENT
        return AggregateItem("count_star", None), None
    if len(expr.args) != 1:
        return None, REASON_EXPRESSION_ARGUMENT
    arg = expr.args[0]
    if not isinstance(arg, ColumnRef):
        return None, REASON_EXPRESSION_ARGUMENT
    if arg.table is not None and arg.table != binding:
        return None, REASON_EXPRESSION_ARGUMENT
    return AggregateItem(expr.name, arg.name), None


# --------------------------------------------------------------------------
# Running accumulators
# --------------------------------------------------------------------------


class MonotoneDeque:
    """The best live entry of a FIFO window, O(1) amortised per change.

    Entries are ``(key, seq, payload)``, ``seq`` numbering the arrivals.
    An arrival pops every back entry whose key is strictly worse, so the
    front is the best live entry and, among equal keys, the earliest:
    the tie rule of a stable sort and of builtin ``min``/``max``.
    :meth:`expire` retires the oldest arrival, popping the front once
    its ``seq`` has expired. Keys must be totally ordered, so a NaN
    arrival never enters: ``nans`` holds the seqs of the live ones.
    """

    __slots__ = ("entries", "nans", "arrived", "expired", "_worse")

    def __init__(self, largest: bool = False) -> None:
        self.entries: "deque[Tuple[Any, int, Any]]" = deque()
        self.nans: "deque[int]" = deque()
        self.arrived = self.expired = 0
        self._worse = operator.lt if largest else operator.gt

    def push(self, key: Any, payload: Any = None, nan: bool = False) -> None:
        """Arrive; may raise the comparison's TypeError (mixed types)."""
        self.arrived = seq = self.arrived + 1
        if nan:
            self.nans.append(seq)
            return
        entries, worse = self.entries, self._worse
        while entries and worse(entries[-1][0], key):
            entries.pop()
        entries.append((key, seq, payload))

    def expire(self) -> None:
        self.expired = expired = self.expired + 1
        if self.entries and self.entries[0][1] <= expired:
            self.entries.popleft()
        if self.nans and self.nans[0] <= expired:
            self.nans.popleft()


def _deferred(states: Sequence["_ItemState"]) -> bool:
    """Whether a NaN ``min``/``max`` input is live in any of ``states``."""
    return any(state.extrema is not None and state.extrema.nans
               for state in states)


class _ItemState:
    """Running accumulator for one ``count``/``sum``/``avg``/``min``/
    ``max`` item over the rows folded into it; ``min``/``max`` keep a
    :class:`MonotoneDeque` of the non-null values."""

    __slots__ = ("kind", "position", "nonnull", "exact", "extrema")

    def __init__(self, kind: str, position: Optional[int]) -> None:
        self.kind = kind
        self.position = position          # column position in the relation
        self.reset()

    def reset(self) -> None:
        self.nonnull = 0                  # non-null inputs currently included
        self.exact: Any = (ExactSum()     # exact running sum (sum/avg)
                           if self.kind in ("sum", "avg") else None)
        self.extrema: Optional[MonotoneDeque] = (
            MonotoneDeque(self.kind == "max")
            if self.kind in ("min", "max") else None)

    def add(self, row: Tuple[Any, ...]) -> None:
        value = row[self.position]  # type: ignore[index]
        if value is None:
            return
        self.nonnull += 1
        if self.exact is not None:
            # Raises on non-numbers: the poisoned state then leaves the
            # query to the interpreter, which raises its own error.
            self.exact.add(value)
        elif self.extrema is not None:
            # Raises where the interpreter's min()/max() would.
            self.extrema.push(value, None, value != value)

    def remove(self, row: Tuple[Any, ...]) -> None:
        value = row[self.position]  # type: ignore[index]
        if value is None:
            return
        self.nonnull -= 1
        if self.exact is not None:
            self.exact.remove(value)
        elif self.extrema is not None:
            self.extrema.expire()

    def result(self) -> Any:
        """The item's value; read only while no NaN input is live."""
        kind = self.kind
        if kind == "count":
            return self.nonnull
        if self.nonnull == 0:
            return None
        if kind == "sum":
            return self.exact.total()
        if kind == "avg":
            return self.exact.total() / self.nonnull
        return self.extrema.entries[0][0]  # type: ignore[union-attr]


class _DeltaState(RowListener):
    """The core the aggregate and top-1 states share: health and
    poisoning (which the join state borrows), the observability fields,
    the compiled WHERE and the guarded fold of window deltas in window
    order.

    Subclasses supply ``_clear``, ``_include`` and ``_exclude`` over
    rows that pass the WHERE. All callbacks run inside the owning
    SourceRuntime's lock, so no locking happens here. The first delta
    that raises (mixed-type arithmetic, a predicate raising, ...)
    poisons the state (``healthy = False``) for good: the sensor then
    runs the query per trigger, which raises the same error at query
    time.
    """

    def __init__(self, spec: Any, relation: RowHistory, label: str,
                 on_poison: PoisonHook) -> None:
        self.spec = spec
        self.relation = relation
        self.healthy = True
        self.label = label                # query text, for the poison log
        self._on_poison = on_poison
        self.poison_cause: Optional[BaseException] = None
        self.updates = 0                  # delta applications (observability)
        self._index = relation._index
        self._where: Optional[Callable[[Tuple[Any, ...]], Any]] = None
        if spec.where is not None:
            # Unsupported propagates to the caller: no attach, and the
            # query raises (or answers) at query time as without us.
            layout = _Layout()
            layout.add(spec.binding, relation.columns)
            self._where = _compile_row(spec.where, layout, {})

    # -- RowListener protocol ----------------------------------------------

    def rows_extended(self, appended: Sequence[Tuple[Any, ...]],
                      evicted: Sequence[Tuple[Any, ...]]) -> None:
        """Fold one admitted batch in window order, under one guard:
        the first delta that raises poisons the state, exactly as it
        would have delivered row by row."""
        if not self.healthy:
            return
        passes, include, exclude = self._passes, self._include, self._exclude
        applied = 0
        try:
            for old, new in in_window_order(appended, evicted):
                if old is not None:
                    if passes(old):
                        exclude(old)
                    applied += 1
                if passes(new):
                    include(new)
                applied += 1
        except Exception as exc:
            self._poison(exc)
        finally:
            self.updates += applied

    def row_evicted(self, row: Tuple[Any, ...]) -> None:
        if not self.healthy:
            return
        try:
            if self._passes(row):
                self._exclude(row)
            self.updates += 1
        except Exception as exc:
            self._poison(exc)

    def rows_reset(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        if not self.healthy:
            return
        try:
            self._clear()
            for row in rows:
                if self._passes(row):
                    self._include(row)
            self.updates += 1
        except Exception as exc:
            self._poison(exc)

    def _poison(self, exc: BaseException) -> None:
        """Flip to per-trigger execution, loudly.

        The fallback itself is by design (the executor re-raises the
        real error at query time), but it must be *observable*: the
        triggering query is logged exactly once per state and the
        owner's ``fastpath_poisoned_total`` counter is bumped through
        ``on_poison`` — a silently swallowed poisoning reads as "the
        optimization is on" while every query runs the slow path.
        """
        if not self.healthy:
            return
        self.healthy = False
        self.poison_cause = exc
        logger.warning(
            "incremental state poisoned; falling back to per-trigger "
            "execution for %s (%s: %s)",
            self.label or "<unlabeled query>", type(exc).__name__, exc,
        )
        if self._on_poison is not None:
            try:
                self._on_poison(exc)
            except Exception:
                # The counter callback must never mask the original
                # poisoning (which is already logged above).
                logger.exception("on_poison callback failed")

    # -- delta application --------------------------------------------------

    def _passes(self, row: Tuple[Any, ...]) -> bool:
        return self._where is None or _truthy(self._where(row))

    def _clear(self) -> None:
        raise NotImplementedError

    def _include(self, row: Tuple[Any, ...]) -> None:
        raise NotImplementedError

    def _exclude(self, row: Tuple[Any, ...]) -> None:
        raise NotImplementedError


class IncrementalAggregateState(_DeltaState):
    """Maintains one qualifying flat aggregate query under window deltas:
    a row count plus one :class:`_ItemState` per other item."""

    def __init__(self, spec: AggregateQuery, relation: RowHistory,
                 label: str = "", on_poison: PoisonHook = None) -> None:
        super().__init__(spec, relation, label, on_poison)
        self._included = 0                # rows passing WHERE
        self._items = [
            _ItemState(item.kind,
                       None if item.column is None
                       else self._index[item.column])
            for item in spec.items
        ]
        self._folded = [state for state in self._items
                        if state.kind != "count_star"]
        self.rows_reset(list(relation.rows))

    def _clear(self) -> None:
        self._included = 0
        for state in self._items:
            state.reset()

    def _include(self, row: Tuple[Any, ...]) -> None:
        self._included += 1
        for state in self._folded:
            state.add(row)

    def _exclude(self, row: Tuple[Any, ...]) -> None:
        self._included -= 1
        for state in self._folded:
            state.remove(row)

    def snapshot(self) -> Optional[Relation]:
        """The query's current answer as a single-row relation, or
        ``None`` while a NaN ``min``/``max`` input is in the window."""
        if _deferred(self._folded):
            return None
        values: List[Any] = []
        for state in self._items:
            values.append(self._included if state.kind == "count_star"
                          else state.result())
        return Relation(self.spec.columns, [tuple(values)])

    def __repr__(self) -> str:
        return (f"IncrementalAggregateState({self.spec.columns}, "
                f"included={self._included}, healthy={self.healthy})")


# --------------------------------------------------------------------------
# Grouped accumulators
# --------------------------------------------------------------------------


class _GroupState:
    """Per-group accumulators plus the group's included rows.

    The rows are kept (as references into the window's tuples) because
    two things need them: plain-column select items (the group's
    *first* row, per ``eval_group``), and output ordering — the
    interpreter emits groups in first-seen window order, which after
    evictions is the order of each group's oldest surviving row.
    """

    __slots__ = ("rows", "items", "folded")

    def __init__(self, items: List[_ItemState]) -> None:
        self.rows: "deque[Tuple[int, Tuple[Any, ...]]]" = deque()
        self.items = items
        self.folded = [state for state in items
                       if state.kind not in ("count_star", "column")]

    def values(self) -> Tuple[Any, ...]:
        values: List[Any] = []
        for state in self.items:
            if state.kind == "count_star":
                values.append(len(self.rows))
            elif state.kind == "column":
                values.append(
                    self.rows[0][1][state.position])  # type: ignore[index]
            else:
                values.append(state.result())
        return tuple(values)


class GroupedAggregateState(_DeltaState):
    """Maintains a qualifying GROUP BY query under window deltas.

    One accumulator map keyed on the group-key tuple; appends update the
    row's group in O(1) (plus group creation), evictions retract from it
    and delete the group when its last row leaves.
    """

    def __init__(self, spec: GroupedAggregateQuery, relation: RowHistory,
                 label: str = "", on_poison: PoisonHook = None) -> None:
        super().__init__(spec, relation, label, on_poison)
        self._key_positions = [self._index[key] for key in spec.keys]
        self._item_specs = [
            (item.kind,
             None if item.column is None else self._index[item.column])
            for item in spec.items
        ]
        self._groups: Dict[Tuple[Any, ...], _GroupState] = {}
        self._seq = 0
        self.rows_reset(list(relation.rows))

    def _key_of(self, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(_hashable(row[pos]) for pos in self._key_positions)

    def _clear(self) -> None:
        self._groups.clear()

    def _include(self, row: Tuple[Any, ...]) -> None:
        key = self._key_of(row)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _GroupState(
                [_ItemState(kind, position)
                 for kind, position in self._item_specs])
        self._seq += 1
        group.rows.append((self._seq, row))
        for state in group.folded:
            state.add(row)

    def _exclude(self, row: Tuple[Any, ...]) -> None:
        key = self._key_of(row)
        group = self._groups[key]
        # Window evictions are strictly FIFO, so the evicted row is this
        # group's oldest.
        group.rows.popleft()
        if not group.rows:
            del self._groups[key]
            return
        for state in group.folded:
            state.remove(row)

    def snapshot(self) -> Optional[Relation]:
        """The query's current answer, one row per live group, or
        ``None`` while a NaN ``min``/``max`` input is in the window.

        Groups are emitted in the order of their oldest surviving row —
        exactly the interpreter's first-seen insertion order over the
        current window contents.
        """
        if any(_deferred(group.folded) for group in self._groups.values()):
            return None
        ordered = sorted(self._groups.values(),
                         key=lambda group: group.rows[0][0])
        return Relation(self.spec.columns,
                        [group.values() for group in ordered])

    def __repr__(self) -> str:
        return (f"GroupedAggregateState({self.spec.columns}, "
                f"groups={len(self._groups)}, healthy={self.healthy})")


class DeltaTopN(_DeltaState):
    """Maintains a :class:`TopOneQuery` under window deltas: the best
    passing row in a :class:`MonotoneDeque`, keyed by the sort key the
    pipeline's decorate stage builds (``_sort_key``, or ``_desc_key``
    for DESC)."""

    def __init__(self, spec: TopOneQuery, relation: RowHistory,
                 label: str = "", on_poison: PoisonHook = None) -> None:
        super().__init__(spec, relation, label, on_poison)
        self._keys = [(self._index[name], _sort_key if ascending
                       else _desc_key) for name, ascending
                      in spec.key_columns(relation.columns)]
        self.rows_reset(list(relation.rows))

    def _clear(self) -> None:
        self._best = MonotoneDeque()

    def _include(self, row: Tuple[Any, ...]) -> None:
        if any(row[p] != row[p] for p, __ in self._keys):
            self._best.push(None, row, nan=True)
        else:
            self._best.push(tuple([key(row[p]) for p, key in self._keys]),
                            row)

    def _exclude(self, row: Tuple[Any, ...]) -> None:
        self._best.expire()

    def snapshot(self) -> Optional[Relation]:
        """The window holding just its best row (none when no row
        passes), for the source plan to project; ``None`` while a NaN
        key is live."""
        best = self._best
        if best.nans:
            return None
        return Relation.adopt(self.relation.columns,
                              [best.entries[0][2]] if best.entries else [])


# --------------------------------------------------------------------------
# Delta-propagating equi-joins
# --------------------------------------------------------------------------


class _JoinSide(RowListener):
    """Routes one window's deltas into the join state, tagged by side."""

    __slots__ = ("_state", "_left")

    def __init__(self, state: "IncrementalJoinState", left: bool) -> None:
        self._state = state
        self._left = left

    def row_appended(self, row: Tuple[Any, ...]) -> None:
        self._state.side_appended(self._left, row)

    def row_evicted(self, row: Tuple[Any, ...]) -> None:
        self._state.side_evicted(self._left, row)

    def rows_reset(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        self._state.side_reset(self._left, rows)


class _JoinEntry:
    """One live left-side row: its key and its current matched output."""

    __slots__ = ("row", "key", "matches")

    def __init__(self, row: Tuple[Any, ...],
                 key: Optional[Tuple[Any, ...]]) -> None:
        self.row = row
        self.key = key                    # None encodes a NULL join key
        # rseq -> projected output row, in right-arrival order.
        self.matches: Dict[int, Tuple[Any, ...]] = {}


class IncrementalJoinState:
    """Maintains a two-source inner equi-join under both windows' deltas.

    Hash indexes on the join key map each arriving row to its matches on
    the other side, so a delta costs O(matches) instead of re-joining
    both windows. Residual predicate, WHERE and projection are applied
    once per surviving pair and the output row cached; the snapshot is a
    concatenation in (left-arrival, right-arrival) order — bit-identical
    to the executors' hash join probe order.

    Not thread-safe across sources: deltas arrive under each source's
    own lock, so the sensor only attaches this state in synchronous
    (zero-copy) containers where all windows mutate on the caller's
    thread. Like the accumulators, any failure poisons the state and the
    stream query returns to per-trigger execution.
    """

    def __init__(self, spec: JoinQuery, left: RowHistory, right: RowHistory,
                 label: str = "", on_poison: PoisonHook = None) -> None:
        self.spec = spec
        self.healthy = True
        self.label = label
        self._on_poison = on_poison
        self.poison_cause: Optional[BaseException] = None
        self.updates = 0
        self._left_relation = left
        self._right_relation = right

        plan = spec.plan
        source = plan.source
        assert isinstance(source, HashJoinPlan)
        left_layout = _Layout()
        left_layout.add(spec.left_binding, left.columns)
        right_layout = _Layout()
        right_layout.add(spec.right_binding, right.columns)
        layout = _Layout.merge(left_layout, right_layout)
        like_cache: Dict[str, Any] = {}

        # physical.Unsupported propagates to the caller: an unresolvable
        # column means no attach and the executor raises at query time.
        self._left_keys = [_compile_row(k, left_layout, like_cache)
                           for k in source.left_keys]
        self._right_keys = [_compile_row(k, right_layout, like_cache)
                            for k in source.right_keys]
        self._residual = (None if source.residual is None else
                          _compile_row(source.residual, layout, like_cache))
        self._where = (None if plan.where is None else
                       _compile_row(plan.where, layout, like_cache))
        self._parts = self._projection_parts(plan, layout, like_cache)
        self.columns = tuple(self._output_columns(plan, layout))

        self._left_entries: Dict[int, _JoinEntry] = {}
        self._right_rows: Dict[int, Tuple[Any, ...]] = {}
        self._left_index: Dict[Tuple[Any, ...], "deque[int]"] = {}
        self._right_index: Dict[Tuple[Any, ...], "deque[int]"] = {}
        self._lseq = 0
        self._rseq = 0
        self.listeners = (_JoinSide(self, True), _JoinSide(self, False))
        left.add_listener(self.listeners[0])
        right.add_listener(self.listeners[1])
        self.side_reset(True, list(left.rows))
        self.side_reset(False, list(right.rows))

    def detach(self) -> None:
        self._left_relation.remove_listener(self.listeners[0])
        self._right_relation.remove_listener(self.listeners[1])

    # -- compile helpers ----------------------------------------------------

    @staticmethod
    def _projection_parts(plan: SelectPlan, layout: Any, like_cache: Dict):
        parts: List[Tuple[str, Any, Any]] = []
        for item in plan.items:
            expr = item.expression
            if isinstance(expr, Star):
                bindings = ([expr.table] if expr.table is not None
                            else list(layout.order))
                for binding in bindings:
                    if binding not in layout.segments:
                        raise Unsupported(f"unknown table in {binding}.*")
                    offset, cols = layout.segments[binding]
                    parts.append(("slice", offset, offset + len(cols)))
            else:
                parts.append(
                    ("expr", _compile_row(expr, layout, like_cache), None))
        return parts

    @staticmethod
    def _output_columns(plan: SelectPlan, layout: Any) -> List[str]:
        names: List[str] = []
        for item in plan.items:
            expr = item.expression
            if isinstance(expr, Star):
                bindings = ([expr.table] if expr.table is not None
                            else list(layout.order))
                for binding in bindings:
                    names.extend(layout.segments[binding][1])
            elif item.alias:
                names.append(item.alias)
            else:
                names.append(expression_name(expr))
        return dedupe_columns(names)

    # -- delta application --------------------------------------------------

    _poison = _DeltaState._poison

    def side_appended(self, left: bool, row: Tuple[Any, ...]) -> None:
        if not self.healthy:
            return
        try:
            if left:
                self._append_left(row)
            else:
                self._append_right(row)
            self.updates += 1
        except Exception as exc:
            self._poison(exc)

    def side_evicted(self, left: bool, row: Tuple[Any, ...]) -> None:
        if not self.healthy:
            return
        try:
            if left:
                self._evict_left()
            else:
                self._evict_right()
            self.updates += 1
        except Exception as exc:
            self._poison(exc)

    def side_reset(self, left: bool, rows: Sequence[Tuple[Any, ...]]) -> None:
        if not self.healthy:
            return
        try:
            if left:
                self._left_entries.clear()
                self._left_index.clear()
                for row in rows:
                    self._append_left(row)
            else:
                self._right_rows.clear()
                self._right_index.clear()
                for entry in self._left_entries.values():
                    entry.matches.clear()
                for row in rows:
                    self._append_right(row)
            self.updates += 1
        except Exception as exc:
            self._poison(exc)

    def _key(self, fns, row: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        key = tuple(_hashable(fn(row)) for fn in fns)
        return None if any(part is None for part in key) else key

    def _append_left(self, row: Tuple[Any, ...]) -> None:
        self._lseq += 1
        lseq = self._lseq
        entry = _JoinEntry(row, self._key(self._left_keys, row))
        self._left_entries[lseq] = entry
        if entry.key is None:
            return
        self._left_index.setdefault(entry.key, deque()).append(lseq)
        for rseq in self._right_index.get(entry.key, ()):
            self._pair(entry, rseq, self._right_rows[rseq])

    def _append_right(self, row: Tuple[Any, ...]) -> None:
        self._rseq += 1
        rseq = self._rseq
        self._right_rows[rseq] = row
        key = self._key(self._right_keys, row)
        if key is None:
            return
        self._right_index.setdefault(key, deque()).append(rseq)
        for lseq in self._left_index.get(key, ()):
            self._pair(self._left_entries[lseq], rseq, row)

    def _pair(self, entry: _JoinEntry, rseq: int,
              rrow: Tuple[Any, ...]) -> None:
        merged = entry.row + rrow
        if self._residual is not None \
                and not _truthy(self._residual(merged)):
            return
        if self._where is not None and not _truthy(self._where(merged)):
            return
        values: List[Any] = []
        for kind, a, b in self._parts:
            if kind == "slice":
                values.extend(merged[a:b])
            else:
                values.append(a(merged))
        entry.matches[rseq] = tuple(values)

    def _evict_left(self) -> None:
        # Strict-FIFO windows evict their oldest row.
        lseq = next(iter(self._left_entries))
        entry = self._left_entries.pop(lseq)
        if entry.key is not None:
            index = self._left_index[entry.key]
            index.popleft()
            if not index:
                del self._left_index[entry.key]

    def _evict_right(self) -> None:
        rseq = next(iter(self._right_rows))
        row = self._right_rows.pop(rseq)
        key = self._key(self._right_keys, row)
        if key is None:
            return
        index = self._right_index[key]
        index.popleft()
        if not index:
            del self._right_index[key]
        for lseq in self._left_index.get(key, ()):
            self._left_entries[lseq].matches.pop(rseq, None)

    # -- result ------------------------------------------------------------

    def snapshot(self) -> Relation:
        """The join's current answer, in hash-join probe order."""
        rows: List[Tuple[Any, ...]] = []
        for entry in self._left_entries.values():
            rows.extend(entry.matches.values())
        return Relation.adopt(self.columns, rows)

    def __repr__(self) -> str:
        return (f"IncrementalJoinState({self.columns}, "
                f"left={len(self._left_entries)}, "
                f"right={len(self._right_rows)}, healthy={self.healthy})")
