"""Compiled physical operator pipelines.

The logical :class:`~repro.sqlengine.planner.SelectPlan` is interpreted
by :mod:`repro.sqlengine.executor` through per-row environments — a dict
of ``LazyRow`` views per frame, name resolution on every column access.
That is the right fallback for arbitrary SQL, but standing queries (the
descriptor's per-source and output queries, registered client queries)
run the *same* plan thousands of times per second, and the paper calls
out exactly this: "the cost of query compiling increases" with clients.

This module lowers a ``SelectPlan`` once — at deploy time — into a tree
of pull-based physical operators:

    SeqScan / DerivedScan / Filter / NestedLoopJoin / HashJoin /
    Project / HashAggregate (GROUP BY) / Distinct / SetOp / Sort /
    TopN / Limit

with every expression *source-generated*: each stage is one Python
function, written and ``compile()``d once, over flat row tuples whose
column references are tuple indexes resolved at compile time — so
per-trigger execution does zero name resolution, zero environment
allocation, zero plan-tree dispatch and no call per expression node.
The WHERE conjunction is one fused loop, the projection one
comprehension, and ``ORDER BY ... LIMIT`` a bounded Top-N selection.

Compilation is total-or-nothing: :func:`try_compile` returns ``None``
for any shape whose exact legacy semantics the pipeline does not
replicate (subqueries anywhere, ``SELECT *`` under aggregation,
unresolvable or ambiguous columns, …). Callers then fall back to
:func:`~repro.sqlengine.executor.execute_plan`, which also re-raises the
proper error at query time — the compiled path never changes observable
behaviour, it only removes interpretation overhead. The differential
property tests assert ``compiled == interpreted`` row for row.

Reentrancy: a compiled pipeline holds no per-execution state — stage
functions pass rows through locals — so one pipeline may execute
concurrently from threaded sensor pools. The per-operator ``last_rows``
counters exist only for EXPLAIN ANALYZE and are benignly racy.
"""

from __future__ import annotations

import heapq
import math
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SQLExecutionError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS, BetweenExpr, BinaryOp, CaseExpr, CastExpr,
    ColumnRef, FunctionCall, InExpr, IsNullExpr, LikeExpr, Literal, Node,
    Star, UnaryOp, has_subquery,
)
from repro.sqlengine.executor import (
    Catalog, _apply_set_op, _arith, _cast, _compare, _hashable,
    _like_to_regex, _Reversed, _sort_key, _truthy,
)
from repro.sqlengine.functions import (
    SCALAR_FUNCTIONS, call_aggregate, call_scalar,
)
from repro.sqlengine.introspect import dedupe_columns, expression_name
from repro.sqlengine.planner import (
    HashJoinPlan, NestedLoopJoinPlan, Plan, ScanPlan, SelectPlan,
    SubqueryScanPlan,
)
from repro.sqlengine.relation import Relation

#: Compiled row expression: flat tuple -> value.
RowFn = Callable[[Tuple[Any, ...]], Any]


class Unsupported(Exception):
    """Internal: the plan shape is outside the compiled pipeline's scope.

    Never escapes :func:`try_compile`; the reason string is kept on the
    plan object for EXPLAIN to report why execution stays legacy.
    """


class SchemaMismatch(Exception):
    """A scanned relation no longer matches the compiled layout."""


# --------------------------------------------------------------------------
# Compile-time row layout
# --------------------------------------------------------------------------


class _Layout:
    """The flat-tuple shape of one source's rows at a pipeline point.

    ``segments`` maps each table binding to ``(offset, columns)``; a row
    is the concatenation of the bindings' column values in segment
    order. Name resolution happens *here, once, at compile time* —
    mirroring ``Env.lookup``'s qualified/unqualified/ambiguous rules —
    instead of per row at execution time. Shapes the runtime resolver
    would reject (unknown column, ambiguous name) compile to
    :class:`Unsupported` so the legacy interpreter keeps raising the
    identical error at query time.
    """

    __slots__ = ("order", "segments", "width")

    def __init__(self) -> None:
        self.order: List[str] = []
        self.segments: Dict[str, Tuple[int, Tuple[str, ...]]] = {}
        self.width = 0

    def add(self, binding: str, columns: Sequence[str]) -> None:
        cols = tuple(columns)
        self.order.append(binding)
        self.segments[binding] = (self.width, cols)
        self.width += len(cols)

    @classmethod
    def merge(cls, left: "_Layout", right: "_Layout") -> "_Layout":
        merged = cls()
        for binding in left.order:
            offset, cols = left.segments[binding]
            merged.add(binding, cols)
        for binding in right.order:
            offset, cols = right.segments[binding]
            merged.add(binding, cols)
        return merged

    def position(self, name: str, table: Optional[str]) -> int:
        if table is not None:
            segment = self.segments.get(table)
            if segment is None:
                raise Unsupported(f"unknown table or alias {table!r}")
            offset, cols = segment
            try:
                return offset + cols.index(name)
            except ValueError:
                raise Unsupported(
                    f"table {table!r} has no column {name!r}"
                ) from None
        hits = []
        for binding in self.order:
            offset, cols = self.segments[binding]
            if name in cols:
                hits.append(offset + cols.index(name))
        if len(hits) > 1:
            raise Unsupported(f"ambiguous column {name!r}")
        if not hits:
            raise Unsupported(f"unknown column {name!r}")
        return hits[0]


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------


def _signed(op: str, value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SQLExecutionError(f"unary {op} needs a number")
    return -value if op == "-" else value


def _scalar(name: str, func: Callable[..., Any], *args: Any) -> Any:
    """``call_scalar`` with the function resolved at compile time."""
    try:
        return func(*args)
    except SQLExecutionError:
        raise
    except Exception as exc:
        raise SQLExecutionError(f"{name}() failed: {exc}") from exc


def _between(lower_ok: Any, upper_ok: Any, negated: bool) -> Any:
    if lower_ok is False or upper_ok is False:
        result = False
    elif lower_ok is None or upper_ok is None:
        return None
    else:
        result = True
    return not result if negated else result


def _like(cache: Dict[str, "re.Pattern[str]"], value: Any, text: Any,
          negated: bool) -> Any:
    if value is None or text is None:
        return None
    regex = cache.get(text)
    if regex is None:
        regex = cache[text] = _like_to_regex(str(text))
    result = bool(regex.match(str(value)))
    return not result if negated else result


def _fail(message: str) -> None:
    raise SQLExecutionError(message)


def _desc_key(value: Any) -> Tuple[int, int, Any]:
    """``_Reversed(_sort_key(value))`` as a plain tuple: flag and type
    rank negated, numbers negated (a NaN kept as the object it is, so
    tuple comparison's identity shortcut still sees it), the rest
    wrapped — every pair compares exactly as the wrapped keys do."""
    flag, rank, value = _sort_key(value)
    if rank:
        return -flag, -rank, _Reversed(value)
    return -flag, 0, -value if value == value else value


#: Everything generated source may call; constants join it by name.
_HELPERS: Dict[str, Any] = {
    "_compare": _compare, "_arith": _arith, "_cast": _cast,
    "_hashable": _hashable, "_sort_key": _sort_key, "_desc_key": _desc_key,
    "_signed": _signed, "_scalar": _scalar, "_between": _between,
    "_like": _like, "_fail": _fail, "_ONCE": (None,),
    "_call_scalar": call_scalar, "_call_aggregate": call_aggregate,
}

#: SQL comparison -> the Python operator inlined for exact int/float.
_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=",
                ">": ">", ">=": ">="}
#: SQL arithmetic inlined for exact int/float, written as ``_arith``
#: computes it (MOD: sign of the dividend, NULL on a zero divisor).
_ARITHMETIC = {
    "+": "{a} + {b}", "-": "{a} - {b}", "*": "{a} * {b}",
    "%": "None if {b} == 0 else {a} - int({a} / {b}) * {b}",
}
_ROW_PREDICATES = (InExpr, BetweenExpr, LikeExpr, IsNullExpr)


def _exec_source(source: str, env: Dict[str, Any], name: str) -> Any:
    """Compile generated ``source`` in ``env`` and return its ``name``
    — the module's only ``exec``. Nesting past what CPython's compiler
    takes leaves the query to the interpreter."""
    try:
        code = compile(source, f"<gsn-pipeline {name}>", "exec")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise Unsupported(f"generated {name} stage: {exc}") from exc
    exec(code, env)
    function = env[name]
    function.source = source
    return function


class _Emitter:
    """Writes the Python source of one pipeline-stage function.

    ``expr`` appends the statements that evaluate a node at the current
    indentation and returns an *atom* for its value: a temporary, a
    literal, a bound constant or a column read. Semantics mirror
    ``_Executor.eval`` / ``eval_group`` — same three-valued logic, same
    short-circuiting, same error classes and messages. Comparisons and
    ``+ - * %`` run inline when both operands are exactly ``int`` or
    ``float``; every other class (``bool`` and subclasses included)
    goes to ``_compare`` / ``_arith``, as does an inline operation that
    raises, so the helper re-raises what it always raised. A truth test
    is written as Python's own: ``_truthy(v)`` is ``bool(v)``.

    Nothing from the query is spliced as text: the source holds only
    the emitter's identifiers, tuple positions, operator tokens from
    the tables above and ``repr()`` of machine-sized finite numbers;
    every other constant is bound into the namespace by name.
    """

    def __init__(self, layout: _Layout,
                 like_cache: Dict[str, "re.Pattern[str]"],
                 depth: int = 1) -> None:
        self.layout = layout
        self.env = dict(_HELPERS, _like_cache=like_cache)
        self.lines: List[str] = []
        self.depth = depth
        self.numeric: set = set()  # literal atoms known int/float
        self._names = 0

    def line(self, text: str) -> None:
        self.lines.append(" " * self.depth + text)

    def _name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def bind(self, value: Any) -> str:
        name = self._name("_k")
        self.env[name] = value
        return name

    def assign(self, code: str) -> str:
        name = self._name("t")
        self.line(f"{name} = {code}")
        return name

    def hold(self, atom: str, literal: bool = False) -> str:
        """``atom`` as a name, cheap to mention twice and fit for an
        ``is None`` test (or, on request, still a numeric literal)."""
        if atom.isidentifier() or (literal and atom in self.numeric):
            return atom
        return self.assign(atom)

    def literal(self, value: Any) -> str:
        if value is None:
            return "None"
        if (type(value) is int and abs(value) < 1 << 63) or (
                type(value) is float and math.isfinite(value)):
            atom = repr(value)
            if atom[0] == "-":
                atom = f"({atom})"
            self.numeric.add(atom)
            return atom
        return self.bind(value)

    def fail(self, message: str, unless: str = "") -> None:
        """Raise ``message`` at this point (unless the test holds)."""
        self.line((f"if not {unless}: " if unless else "")
                  + f"_fail({self.bind(message)})")

    def item(self, item: Any) -> str:
        """A projection item: a source position or an expression."""
        return f"r[{item}]" if isinstance(item, int) else self.expr(item)

    # -- expressions --------------------------------------------------------

    def expr(self, node: Node, group: bool = False) -> str:
        """Emit ``node`` over row ``r`` (or, with ``group``, over the
        list of rows ``g``: aggregates fold their argument, columns and
        row predicates read the first row, binary operators evaluate
        both sides before deciding)."""
        if isinstance(node, Literal):
            return self.literal(node.value)
        if isinstance(node, ColumnRef):
            position = self.layout.position(node.name, node.table)
            return (f"(g[0][{position}] if g else None)" if group
                    else f"r[{position}]")
        if isinstance(node, FunctionCall):
            if node.name in AGGREGATE_FUNCTIONS:
                return self._aggregate(node, group)
            args = ", ".join([self.expr(arg, group) for arg in node.args])
            name = self.bind(node.name)
            func = SCALAR_FUNCTIONS.get(node.name)
            if func is None:  # raises the unknown-function error
                return self.assign(f"_call_scalar({name}, [{args}])")
            return self.assign(f"_scalar({name}, {self.bind(func)}, {args})")
        if group and isinstance(node, _ROW_PREDICATES):
            self.fail("cannot evaluate row predicate over an empty group",
                      unless="g")
            self.line("r = g[0]")
            group = False
        if isinstance(node, UnaryOp):
            value = self.hold(self.expr(node.operand, group))
            if node.op == "not":
                return self.assign(
                    f"None if {value} is None else not {value}")
            if not group:
                return self.assign(
                    f"_signed({self.bind(node.op)}, {value})")
            if node.op != "-":
                return value
            return self.assign(f"None if {value} is None else -{value}")
        if isinstance(node, BinaryOp):
            if node.op in ("and", "or"):
                return self._logical(node, group)
            left = self.hold(self.expr(node.left, group), literal=True)
            right = self.hold(self.expr(node.right, group), literal=True)
            return self._binary(node.op, left, right)
        if isinstance(node, InExpr):
            return self._in_list(node)
        if isinstance(node, BetweenExpr):
            # The lower comparison runs (and may raise) before the
            # upper bound is evaluated.
            value = self.hold(self.expr(node.operand), literal=True)
            lower = self._binary(
                ">=", value, self.hold(self.expr(node.low), literal=True))
            upper = self._binary(
                "<=", value, self.hold(self.expr(node.high), literal=True))
            return self.assign(
                f"_between({lower}, {upper}, {bool(node.negated)})")
        if isinstance(node, LikeExpr):
            args = ", ".join([self.expr(node.operand),
                              self.expr(node.pattern)])
            return self.assign(
                f"_like(_like_cache, {args}, {bool(node.negated)})")
        if isinstance(node, IsNullExpr):
            test = "is not None" if node.negated else "is None"
            return self.assign(f"{self.hold(self.expr(node.operand))} {test}")
        if isinstance(node, CastExpr):
            return self.assign(f"_cast({self.expr(node.operand, group)}, "
                               f"{self.bind(node.target)})")
        if isinstance(node, CaseExpr):
            return self._case(node, group)
        raise Unsupported(f"cannot compile {type(node).__name__}"
                          + (" in GROUP BY context" if group else ""))

    def _binary(self, op: str, left: str, right: str) -> str:
        """A comparison or arithmetic over two held atoms."""
        inline = _COMPARISONS.get(op) or _ARITHMETIC.get(op)
        helper = "_compare" if op in _COMPARISONS else "_arith"
        call = f"{helper}({repr(op) if inline else self.bind(op)}, " \
               f"{left}, {right})"
        if inline is None:
            return self.assign(call)
        guard = " and ".join(
            f"(type({atom}) is int or type({atom}) is float)"
            for atom in (left, right) if atom not in self.numeric)
        if op in _COMPARISONS:
            fast = f"{left} {inline} {right}"
            return self.assign(f"{fast} if {guard} else {call}"
                               if guard else fast)
        fast = inline.format(a=left, b=right)
        result = self._name("t")
        self.line("try:")
        self.line(f" {result} = ({fast}) if {guard or True} else {call}")
        self.line("except (OverflowError, ValueError):")
        self.line(f" {result} = {call}")
        return result

    def _logical(self, node: BinaryOp, group: bool) -> str:
        """Three-valued AND / OR; a side *decides* when it is false
        (AND) or true (OR). Row context stops at a deciding left side;
        group context evaluates both sides first, as eval_group does."""
        decides = ("{0} is not None and not {0}" if node.op == "and"
                   else "{0}").format
        decided = node.op == "or"
        result = self._name("t")
        left = self.hold(self.expr(node.left, group))
        depth = self.depth
        if group:
            right = self.hold(self.expr(node.right, group))
            self.line(f"if ({decides(left)}) or ({decides(right)}): "
                      f"{result} = {decided}")
        else:
            self.line(f"if {decides(left)}: {result} = {decided}")
            self.line("else:")
            self.depth += 1
            right = self.hold(self.expr(node.right))
            self.line(f"if {decides(right)}: {result} = {decided}")
        self.line(f"elif {left} is None or {right} is None: "
                  f"{result} = None")
        self.line(f"else: {result} = {not decided}")
        self.depth = depth
        return result

    def _in_list(self, node: InExpr) -> str:
        """``x IN (...)``: options are evaluated one at a time, up to
        the first match (a one-pass loop keeps the chain flat)."""
        if node.subquery is not None:
            raise Unsupported("IN (subquery)")
        value = self.hold(self.expr(node.operand))
        result, null = self.assign("None"), self._name("t")
        depth = self.depth
        self.line(f"if {value} is not None:")
        self.depth += 1
        self.line(f"{null} = False")
        self.line("for _ in _ONCE:")
        self.depth += 1
        for option in node.options or ():
            option = self.hold(self.expr(option), literal=True)
            branch = "if"
            if option not in self.numeric:
                self.line(f"if {option} is None: {null} = True")
                branch = "elif"
            self.line(f"{branch} _compare('=', {value}, {option}): "
                      f"{result} = {not node.negated}; break")
        self.line(f"{result} = None if {null} else {bool(node.negated)}")
        self.depth = depth
        return result

    def _case(self, node: CaseExpr, group: bool) -> str:
        result = self._name("t")
        depth = self.depth
        subject = (None if node.operand is None
                   else self.hold(self.expr(node.operand, group)))
        for condition, value in node.branches:
            test = self.expr(condition, group)
            if subject is not None:
                test = f"_compare('=', {subject}, {test})"
            self.line(f"if {test}:")
            self.depth += 1
            self.line(f"{result} = {self.expr(value, group)}")
            self.depth -= 1
            self.line("else:")
            self.depth += 1
        default = ("None" if node.default is None
                   else self.expr(node.default, group))
        self.line(f"{result} = {default}")
        self.depth = depth
        return result

    def _aggregate(self, node: FunctionCall, group: bool) -> str:
        if not group:
            raise Unsupported(f"aggregate {node.name}() in row context")
        name = self.bind(node.name)
        if node.star:
            return self.assign(f"_call_aggregate({name}, [], star=True, "
                               "row_count=len(g))")
        if len(node.args) != 1:
            raise Unsupported(f"aggregate {node.name}() arity")
        values = self.collect(lambda: self.expr(node.args[0]), "g")
        return self.assign(f"_call_aggregate({name}, {values}, "
                           f"distinct={bool(node.distinct)})")

    # -- stage bodies -------------------------------------------------------

    def collect(self, value: Callable[[], str], rows: str) -> str:
        """Code for the list of ``value()`` over every ``r`` in
        ``rows``: a comprehension when the value needs no statements,
        else an explicit loop around them."""
        start = len(self.lines)
        self.depth += 1
        atom = value()
        self.depth -= 1
        if len(self.lines) == start:
            return f"[{atom} for r in {rows}]"
        out = self._name("t")
        pad = " " * self.depth
        self.lines[start:start] = [f"{pad}{out} = []",
                                   f"{pad}for r in {rows}:"]
        self.line(f" {out}.append({atom})")
        return out

    def row_tuple(self, items: Sequence[Any], wrap: str = "{}") -> str:
        """A tuple display of ``items``, each atom put through ``wrap``."""
        return "(" + "".join([wrap.format(self.item(item)) + ", "
                              for item in items]) + ")"

    def order_key(self, value: str, ascending: bool) -> str:
        """The comparable key of one ORDER BY value: ``_sort_key``'s
        tuple, or ``_desc_key``'s for DESC. A NaN key raises ``nan``."""
        value, kind, key = self.hold(value), self._name("t"), self._name("t")
        flag, sign, helper = ((1, "", "_sort_key") if ascending
                              else (-1, "-", "_desc_key"))
        self.line(f"{kind} = type({value})")
        self.line(f"if {kind} is int or {kind} is float and "
                  f"{value} == {value}: {key} = ({flag}, 0, {sign}{value})")
        self.line("else:")
        self.line(f" {key} = {helper}({value})")
        self.line(f" if {key}[2] != {key}[2]: nan = True")
        return key

    def build(self, name: str, params: str, result: str,
              head: Sequence[str] = ()) -> Any:
        return _exec_source("\n".join(
            [f"def {name}({params}):", *head, *self.lines,
             f" return {result}", ""]), self.env, name)


def _compile_row(node: Node, layout: _Layout,
                 like_cache: Dict[str, "re.Pattern[str]"]) -> RowFn:
    """Compile an expression into a function of one flat row tuple."""
    emitter = _Emitter(layout, like_cache)
    return emitter.build("row", "r", emitter.expr(node))


def _conjuncts(node: Node) -> List[Node]:
    """The operands of a (nested) AND, in evaluation order."""
    if isinstance(node, BinaryOp) and node.op == "and":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


# --------------------------------------------------------------------------
# Physical operators (explain tree + per-stage functions)
# --------------------------------------------------------------------------


class PhysOp:
    """One node of the compiled operator tree.

    The tree exists for EXPLAIN: execution runs through the stage
    functions compiled alongside it. ``last_rows`` is the row count the
    operator produced on its most recent execution (observability only;
    concurrent executions may interleave writes harmlessly).
    """

    __slots__ = ("name", "detail", "children", "last_rows")

    def __init__(self, name: str, detail: str = "",
                 children: Sequence["PhysOp"] = ()) -> None:
        self.name = name
        self.detail = detail
        self.children = list(children)
        self.last_rows: Optional[int] = None

    def describe(self) -> str:
        return f"{self.name} {self.detail}".strip()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


#: A source stage: catalog -> list of flat row tuples.
_SourceFn = Callable[[Catalog], List[Tuple[Any, ...]]]


class CompiledPipeline:
    """A deploy-time-compiled, re-executable physical plan.

    ``execute(catalog)`` is the entire per-trigger cost: no parsing, no
    planning, no name resolution — just the stage functions over the
    catalog's current relations. ``signature`` records the scanned
    tables' column layouts; :func:`run_plan` recompiles when a scan's
    relation changes shape (raising :class:`SchemaMismatch` internally).
    ``source`` is the generated Python of every stage, for debugging.
    """

    __slots__ = ("root", "columns", "signature", "_run", "_sources")

    def __init__(self, root: PhysOp, columns: Sequence[str],
                 signature: Tuple[Tuple[str, Tuple[str, ...]], ...],
                 run: Callable[[Catalog], Relation],
                 sources: Sequence[str]) -> None:
        self.root = root
        self.columns = tuple(columns)
        self.signature = signature
        self._run = run
        self._sources = sources

    @property
    def source(self) -> str:
        return "\n".join(self._sources)

    def execute(self, catalog: Catalog) -> Relation:
        return self._run(catalog)

    def explain(self) -> str:
        """Indented physical-operator tree with last-run row counts."""
        lines: List[str] = []

        def emit(op: PhysOp, depth: int) -> None:
            note = "" if op.last_rows is None else f"  [rows={op.last_rows}]"
            lines.append("  " * depth + op.describe() + note)
            for child in op.children:
                emit(child, depth + 1)
        emit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<CompiledPipeline columns={list(self.columns)}>"


class _Compiler:
    """Lowers one SelectPlan; collects the scan signature as it goes."""

    def __init__(self, schemas: Dict[str, Tuple[str, ...]]) -> None:
        self.schemas = {name.lower(): tuple(cols)
                        for name, cols in schemas.items()}
        self.signature: List[Tuple[str, Tuple[str, ...]]] = []
        self.like_cache: Dict[str, "re.Pattern[str]"] = {}
        self.sources: List[str] = []

    # -- sources -----------------------------------------------------------

    def compile_source(self, plan: Plan) -> Tuple[_SourceFn, _Layout, PhysOp]:
        if isinstance(plan, ScanPlan):
            table = plan.table.lower()
            columns = self.schemas.get(table)
            if columns is None:
                raise Unsupported(f"no schema for table {plan.table!r}")
            self.signature.append((table, columns))
            layout = _Layout()
            layout.add(plan.binding, columns)
            op = PhysOp("SeqScan", plan.table if plan.binding == plan.table
                        else f"{plan.table} AS {plan.binding}")

            def scan(catalog: Catalog) -> List[Tuple[Any, ...]]:
                relation = catalog.get(table)
                if relation.columns != columns:
                    raise SchemaMismatch(table)
                rows = relation.rows
                op.last_rows = len(rows)
                return rows if isinstance(rows, list) else list(rows)
            return scan, layout, op

        if isinstance(plan, SubqueryScanPlan):
            inner = self.compile_select(plan.plan)
            layout = _Layout()
            layout.add(plan.binding, inner.columns)
            op = PhysOp("DerivedScan", plan.binding,
                        children=[inner.root])

            def derived(catalog: Catalog) -> List[Tuple[Any, ...]]:
                rows = inner.execute(catalog).rows
                op.last_rows = len(rows)
                return rows
            return derived, layout, op

        if isinstance(plan, (HashJoinPlan, NestedLoopJoinPlan)):
            return self._compile_join(plan)

        raise Unsupported(f"unknown plan node {type(plan).__name__}")

    def _compile_join(self, plan: Plan) -> Tuple[_SourceFn, _Layout, PhysOp]:
        """Hash join (build right, probe left, residual per pair) or,
        without equi-keys, a nested loop over every pair."""
        left_fn, left_layout, left_op = self.compile_source(plan.left)
        right_fn, right_layout, right_op = self.compile_source(plan.right)
        layout = _Layout.merge(left_layout, right_layout)
        hashed = isinstance(plan, HashJoinPlan)
        if hashed:
            left_key = self._key(plan.left_keys, left_layout)
            right_key = self._key(plan.right_keys, right_layout)
        condition = plan.residual if hashed else plan.condition
        if condition is not None:
            condition = self._row(condition, layout)
        left_join = plan.kind == "left"
        pad = (None,) * right_layout.width
        op = PhysOp("HashJoin" if hashed else "NestedLoop",
                    f"[{plan.kind}]", children=[left_op, right_op])

        def join(catalog: Catalog) -> List[Tuple[Any, ...]]:
            left_rows = left_fn(catalog)
            matches: Sequence[Tuple[Any, ...]] = right_fn(catalog)
            if hashed:
                table: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
                for rrow in matches:
                    key = right_key(rrow)
                    if any(part is None for part in key):
                        continue  # NULL keys never join
                    table.setdefault(key, []).append(rrow)
            results: List[Tuple[Any, ...]] = []
            for lrow in left_rows:
                if hashed:
                    key = left_key(lrow)
                    matches = (() if any(part is None for part in key)
                               else table.get(key, ()))
                matched = False
                for rrow in matches:
                    merged = lrow + rrow
                    if condition is not None \
                            and not _truthy(condition(merged)):
                        continue
                    matched = True
                    results.append(merged)
                if left_join and not matched:
                    results.append(lrow + pad)
            op.last_rows = len(results)
            return results
        return join, layout, op

    # -- generated stages ---------------------------------------------------

    def _emitter(self, layout: _Layout, nodes: Sequence[Any],
                 depth: int = 1) -> _Emitter:
        """An emitter for a stage over ``nodes``, none a subquery."""
        for node in nodes:
            if isinstance(node, Node) and has_subquery(node):
                raise Unsupported("subquery expression")
        return _Emitter(layout, self.like_cache, depth)

    def _build(self, emitter: _Emitter, name: str, params: str,
               result: str, head: Sequence[str] = ()) -> Any:
        function = emitter.build(name, params, result, head)
        self.sources.append(function.source)
        return function

    def _row(self, node: Node, layout: _Layout) -> RowFn:
        emitter = self._emitter(layout, [node])
        return self._build(emitter, "row", "r", emitter.expr(node))

    def _key(self, nodes: Sequence[Node], layout: _Layout) -> RowFn:
        """Join / GROUP BY key: row -> tuple of hashable values."""
        emitter = self._emitter(layout, nodes)
        return self._build(emitter, "key", "r",
                           emitter.row_tuple(nodes, "_hashable({})"))

    def _filter(self, where: Node, layout: _Layout
                ) -> Tuple[Callable[[List[Any]], List[Any]], int]:
        """The fused WHERE stage, rows -> kept rows in one loop, and
        its conjunct count. A row is kept iff the predicate is true: a
        false conjunct rejects it at once, a NULL one is remembered
        while the later conjuncts still run (any may raise), exactly as
        the nested three-valued ANDs evaluate."""
        conjuncts = _conjuncts(where)
        emitter = self._emitter(layout, [where], depth=2)
        head = [" out = []", " for r in rows:"]
        for conjunct in conjuncts[:-1]:
            test = emitter.hold(emitter.expr(conjunct))
            emitter.line(f"if not {test}:")
            emitter.line(f" if {test} is None: null = True")
            emitter.line(" else: continue")
        test = emitter.hold(emitter.expr(conjuncts[-1]))
        emitter.line(f"if not {test}: continue")
        if len(conjuncts) > 1:
            head.append("  null = False")
            emitter.line("if null: continue")
        emitter.line("out.append(r)")
        return (self._build(emitter, "keep", "rows", "out", head),
                len(conjuncts))

    # -- the SELECT core ----------------------------------------------------

    def compile_select(self, plan: SelectPlan) -> CompiledPipeline:
        if plan.source is None:
            raise Unsupported("constant-source SELECT")
        source_fn, layout, top_op = self.compile_source(plan.source)

        def push(name: str, detail: str = "", *more: PhysOp) -> PhysOp:
            nonlocal top_op
            top_op = PhysOp(name, detail, [top_op, *more])
            return top_op

        keep = filter_op = None
        if plan.where is not None:
            keep, count = self._filter(plan.where, layout)
            filter_op = push("Filter", f"[fused, {count} conjunct"
                             f"{'s' if count > 1 else ''}]")

        items, columns = self._project_items(plan, layout)
        offset, limit = plan.offset, plan.limit
        #: Rows an ORDER BY must deliver when a LIMIT bounds it (Top-N).
        bound = (limit + (offset or 0)
                 if plan.order_by and limit is not None else None)
        project = project_op = deferred = None
        if plan.is_aggregate:
            aggregate, top_op = self._compile_aggregate(plan, layout, top_op)
        else:
            project = self._project(items, layout)
            labels = ", ".join(item.alias or expression_name(item.expression)
                               for item in plan.items)
            # Total items cannot raise, so Top-N may pick among source
            # rows and only the survivors be projected.
            if bound is not None and not plan.distinct \
                    and not plan.set_operations and all(
                        isinstance(item, (int, ColumnRef, Literal))
                        for item in items):
                deferred = items
            else:
                project_op = push("Project", labels)

        distinct_op = push("Distinct") if plan.distinct else None

        set_stages = []
        for op_name, all_flag, right_plan in plan.set_operations:
            right = self.compile_select(right_plan)
            if len(right.columns) != len(columns):
                raise Unsupported("set-operation width mismatch")
            set_stages.append((op_name, all_flag, right, push(
                "SetOp", op_name.upper() + (" ALL" if all_flag else ""),
                right.root)))

        decorate = order_op = slice_op = None
        if plan.order_by:
            decorate = self._order(plan, layout, columns, deferred)
            keys = ", ".join(
                expression_name(item.expression)
                + ("" if item.ascending else " DESC")
                for item in plan.order_by)
            order_op = slice_op = (
                push("Sort", keys) if bound is None else
                push("TopN", f"k={limit} offset={offset or 0} [{keys}]"))
        if bound is None and (limit is not None or offset is not None):
            slice_op = push("Limit", " ".join(
                f"{word} {value}" for word, value in
                (("LIMIT", limit), ("OFFSET", offset)) if value is not None))
        if deferred is not None:
            project_op = push("Project", labels)

        out_columns = tuple(columns)

        def run(catalog: Catalog) -> Relation:
            rows = source_fn(catalog)
            if keep is not None:
                rows = keep(rows)
                filter_op.last_rows = len(rows)
            if deferred is not None:
                out_rows = contexts = rows
            elif project is not None:
                out_rows, contexts = project(rows), rows
                project_op.last_rows = len(out_rows)
            else:
                out_rows, contexts = aggregate(rows)
            if distinct_op is not None:
                out_rows, contexts = _distinct_rows(out_rows, contexts)
                distinct_op.last_rows = len(out_rows)
            for op_name, all_flag, right, set_op in set_stages:
                right_rows = right.execute(catalog).rows
                out_rows = _apply_set_op(op_name, all_flag,
                                         out_rows, right_rows)
                contexts = [None] * len(out_rows)
                set_op.last_rows = len(out_rows)
            if decorate is not None:
                out_rows = _ordered(decorate, out_rows, contexts, bound)
                order_op.last_rows = len(out_rows)
            if offset is not None:
                out_rows = out_rows[offset:]
            if limit is not None:
                out_rows = out_rows[:limit]
            if slice_op is not None:
                slice_op.last_rows = len(out_rows)
            if deferred is not None:
                out_rows = project(out_rows)
                project_op.last_rows = len(out_rows)
            return Relation.adopt(out_columns, out_rows)

        return CompiledPipeline(top_op, out_columns,
                                tuple(self.signature), run, self.sources)

    # -- projection ---------------------------------------------------------

    def _project_items(self, plan: SelectPlan, layout: _Layout
                       ) -> Tuple[List[Any], List[str]]:
        """One entry per output column — a source-row position (``*``
        expands to its bindings' positions) or the item's expression —
        and the output column names."""
        items: List[Any] = []
        names: List[str] = []
        for item in plan.items:
            expr = item.expression
            if not isinstance(expr, Star):
                items.append(expr)
                names.append(item.alias or expression_name(expr))
                continue
            bindings = ([expr.table] if expr.table is not None
                        else list(layout.order))
            for binding in bindings:
                if binding not in layout.segments:
                    raise Unsupported(f"unknown table in {binding}.*")
                start, cols = layout.segments[binding]
                items.extend(range(start, start + len(cols)))
                names.extend(cols)
        return items, dedupe_columns(names)

    def _project(self, items: List[Any], layout: _Layout
                 ) -> Callable[[List[Any]], List[Any]]:
        """The fused projection, rows -> output rows: one generated
        comprehension (a loop when an item needs statements)."""
        if items == list(range(layout.width)):
            return list  # ``select *``: the rows themselves, copied
        emitter = self._emitter(layout, items)
        return self._build(emitter, "project", "rows", emitter.collect(
            lambda: emitter.row_tuple(items), "rows"))

    def _compile_aggregate(self, plan: SelectPlan, layout: _Layout,
                           child: PhysOp):
        """GROUP BY + HashAggregate (or a single whole-input group);
        returns (stage, op), the stage mapping source rows to (output
        rows, contexts) with each context the row's group."""
        exprs = [item.expression for item in plan.items]
        if any(isinstance(expr, Star) for expr in exprs):
            # Legacy raises at query time; stay on the interpreter.
            raise Unsupported("SELECT * with aggregation")
        key = self._key(plan.group_by, layout) if plan.group_by else None
        emitter = self._emitter(layout, exprs)
        items = self._build(emitter, "items", "g", "(" + "".join(
            [emitter.expr(expr, group=True) + ", " for expr in exprs]) + ")")
        having = None
        if plan.having is not None:
            emitter = self._emitter(layout, [plan.having])
            having = self._build(emitter, "having", "g",
                                 emitter.expr(plan.having, group=True))
        op = PhysOp("HashAggregate",
                    f"keys={len(plan.group_by)}" if key else "plain",
                    children=[child])

        def stage(rows):
            if key is not None:
                groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
                for row in rows:
                    groups.setdefault(key(row), []).append(row)
                group_list = list(groups.values())
            else:
                group_list = [rows]  # single group, even when empty
            out_rows: List[Tuple[Any, ...]] = []
            contexts: List[Any] = []
            for group in group_list:
                if having is not None and not _truthy(having(group)):
                    continue
                out_rows.append(items(group))
                contexts.append(group)
            op.last_rows = len(out_rows)
            return out_rows, contexts
        return stage, op

    # -- ORDER BY -----------------------------------------------------------

    def _order(self, plan: SelectPlan, layout: _Layout,
               columns: Sequence[str], deferred: Optional[List[Any]]):
        """The generated decorate stage: (rows, contexts) -> one
        ``(key, ..., index, row)`` tuple per row, plus whether any key
        was NaN. A key reads an output column (by position, name or
        alias) or evaluates against the row's context — its source row,
        or its group under aggregation; there is none after a set
        operation. With ``deferred`` projection items the rows *are*
        the source rows and an output column is its item."""
        aliases = {item.alias: item.expression
                   for item in plan.items if item.alias}
        positions = {name: i for i, name in enumerate(columns)}
        emitter = self._emitter(
            layout, [item.expression for item in plan.order_by], depth=2)
        keys = []
        for order_item in plan.order_by:
            expr = order_item.expression
            position = None
            if isinstance(expr, Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                position = expr.value - 1
                if not 0 <= position < len(columns):
                    emitter.fail(
                        f"ORDER BY position {expr.value} out of range")
                    continue
            elif isinstance(expr, ColumnRef) and expr.table is None:
                position = positions.get(expr.name)
                expr = aliases.get(expr.name, expr)
            if position is not None:
                value = (f"o[{position}]" if deferred is None
                         else emitter.item(deferred[position]))
            elif plan.set_operations:
                emitter.fail("ORDER BY over a set operation must "
                             "reference output columns")
                continue
            else:
                value = emitter.expr(expr, group=plan.is_aggregate)
            keys.append(emitter.order_key(value, order_item.ascending))
        context = "g" if plan.is_aggregate else "r"
        loop, row = ((f"(o, {context}) in enumerate(zip(rows, contexts))",
                      "o") if deferred is None
                     else ("r in enumerate(contexts)", "r"))
        emitter.line(f"out.append(({''.join(k + ', ' for k in keys)}"
                     f"i, {row}))")
        return self._build(
            emitter, "decorate", "rows, contexts", "out, nan",
            [" out = []", " nan = False", f" for i, {loop}:"])


def _distinct_rows(rows: List[Tuple[Any, ...]], contexts: List[Any]):
    seen = set()
    out_rows = []
    out_contexts = []
    for row, context in zip(rows, contexts):
        key = tuple(_hashable(value) for value in row)
        if key in seen:
            continue
        seen.add(key)
        out_rows.append(row)
        out_contexts.append(context)
    return out_rows, out_contexts


def _ordered(decorate, rows: List[Tuple[Any, ...]], contexts: List[Any],
             bound: Optional[int]) -> List[Tuple[Any, ...]]:
    """``rows`` in ORDER BY order — only the first ``bound`` of them
    when a LIMIT bounds the sort (Top-N). Entries carry their input
    index, so they are totally ordered and the bounded selection equals
    sort-then-slice; NaN keys have no total order, so they keep the
    full sort."""
    decorated, nan = decorate(rows, contexts)
    if bound is None or nan:
        decorated.sort()
    else:
        decorated = heapq.nsmallest(bound, decorated)
    return [entry[-1] for entry in decorated]


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------

_UNSET = object()


def try_compile(plan: SelectPlan,
                schemas: Dict[str, Tuple[str, ...]]
                ) -> Optional[CompiledPipeline]:
    """Lower ``plan`` into a compiled pipeline, or ``None``.

    ``schemas`` maps table name (as scanned) to the exact column tuple
    its catalog relation will carry at execution time. ``None`` means
    the shape is out of scope and the caller must keep interpreting —
    which also preserves the interpreter's exact query-time errors for
    invalid queries. The refusal reason is recorded on the plan as
    ``_phys_reason`` for EXPLAIN.
    """
    try:
        pipeline = _Compiler(schemas).compile_select(plan)
    except Unsupported as exc:
        plan._phys_reason = str(exc)  # type: ignore[attr-defined]
        return None
    plan._phys_reason = None  # type: ignore[attr-defined]
    return pipeline


def catalog_schemas(plan: SelectPlan,
                    catalog: Catalog) -> Optional[Dict[str, Tuple[str, ...]]]:
    """The scanned tables' current column layouts, or ``None`` when a
    table is missing (the interpreter raises its unknown-table error)."""
    schemas: Dict[str, Tuple[str, ...]] = {}
    for node in plan.walk():
        if isinstance(node, ScanPlan):
            if node.table not in catalog:
                return None
            schemas[node.table.lower()] = catalog.get(node.table).columns
    return schemas


def run_plan(plan: SelectPlan, catalog: Catalog) -> Tuple[Relation, bool]:
    """Execute ``plan``, compiled when possible.

    Returns ``(relation, compiled)``. The pipeline is compiled lazily on
    first execution against the catalog's current schemas and cached on
    the plan object (plans are per-deployment / plan-cache objects, so
    this is the "compiled once per descriptor" contract); a schema
    change triggers one recompile, and an unsupported shape falls back
    to the interpreter until the schemas change (the failure is cached
    keyed on the schemas it was observed against, so long-lived
    plan-cache entries recover when a table appears or widens).
    """
    from repro.sqlengine.executor import execute_plan

    pipeline = getattr(plan, "_phys", None)
    if pipeline is not None:
        try:
            return pipeline.execute(catalog), True
        except SchemaMismatch:
            pipeline = None
    schemas = catalog_schemas(plan, catalog)
    if schemas is None:
        return execute_plan(plan, catalog), False
    if (getattr(plan, "_phys", _UNSET) is None
            and schemas == getattr(plan, "_phys_failed_schemas", _UNSET)):
        return execute_plan(plan, catalog), False
    compiled = _compile_with_schemas(plan, schemas)
    if compiled is not None:
        return compiled.execute(catalog), True
    return execute_plan(plan, catalog), False


def compile_for_catalog(plan: SelectPlan,
                        catalog: Catalog) -> Optional[CompiledPipeline]:
    """Compile ``plan`` against ``catalog``'s current layouts and cache
    the result (or the failure) on the plan object."""
    schemas = catalog_schemas(plan, catalog)
    if schemas is None:
        plan._phys = None  # type: ignore[attr-defined]
        plan._phys_failed = "missing table"  # type: ignore[attr-defined]
        plan._phys_failed_schemas = None  # type: ignore[attr-defined]
        return None
    return _compile_with_schemas(plan, schemas)


def _compile_with_schemas(plan: SelectPlan,
                          schemas: Dict[str, Tuple[str, ...]]
                          ) -> Optional[CompiledPipeline]:
    pipeline = try_compile(plan, schemas)
    plan._phys = pipeline  # type: ignore[attr-defined]
    if pipeline is None:
        plan._phys_failed = (  # type: ignore[attr-defined]
            getattr(plan, "_phys_reason", None) or "unsupported")
        plan._phys_failed_schemas = schemas  # type: ignore[attr-defined]
    else:
        plan._phys_failed = None  # type: ignore[attr-defined]
        plan._phys_failed_schemas = None  # type: ignore[attr-defined]
    return pipeline

