"""Plan execution.

Rows travel through the executor as *environments*: ordered mappings from
table binding (alias) to a column→value dict, chained outward for
correlated subqueries. The final projection turns environments into a
:class:`~repro.sqlengine.relation.Relation`.

Null semantics follow SQL three-valued logic: comparisons with ``NULL``
yield ``NULL``, ``WHERE`` keeps only rows whose condition is true, and
``AND``/``OR`` use Kleene logic.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SQLExecutionError, SQLPlanError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS, BetweenExpr, BinaryOp, CaseExpr, CastExpr,
    ColumnRef, ExistsExpr, FunctionCall, InExpr, IsNullExpr, LikeExpr,
    Literal, Node, OrderItem, ScalarSubquery, SelectItem, SelectStatement,
    Star, UnaryOp,
)
from repro.sqlengine.functions import call_aggregate, call_scalar
from repro.sqlengine.introspect import dedupe_columns, expression_name
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import (
    HashJoinPlan, NestedLoopJoinPlan, Plan, ScanPlan, SelectPlan,
    SubqueryScanPlan, plan_select,
)
from repro.sqlengine.relation import Relation

class LazyRow:
    """A dict-like view over one relation tuple.

    Scans produce millions of rows; building a dict per row dominates
    execution time. This view shares one column-index map per relation
    and keeps the tuple as-is. It implements exactly the mapping surface
    the executor touches (``in``, ``[]``, ``get``).
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: Dict[str, int],
                 values: Tuple[Any, ...]) -> None:
        self._index = index
        self._values = values

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Any:
        return self._values[self._index[name]]

    def get(self, name: str, default: Any = None) -> Any:
        position = self._index.get(name)
        return default if position is None else self._values[position]

    def keys(self):
        return self._index.keys()

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={self._values[i]!r}"
                          for k, i in self._index.items())
        return f"LazyRow({pairs})"


#: A frame maps table bindings to row views (LazyRow or plain dicts for
#: null padding).
Frame = Dict[str, Any]
Template = Dict[str, Tuple[str, ...]]


class Env:
    """A chain of frames; ``frames[0]`` is the innermost scope."""

    __slots__ = ("frames",)

    def __init__(self, frames: List[Frame]) -> None:
        self.frames = frames

    @classmethod
    def root(cls, frame: Frame) -> "Env":
        return cls([frame])

    def child(self, frame: Frame) -> "Env":
        return Env([frame] + self.frames)

    def lookup(self, name: str, table: Optional[str]) -> Any:
        if table is not None:
            for frame in self.frames:
                if table in frame:
                    row = frame[table]
                    if name in row:
                        return row[name]
                    raise SQLExecutionError(
                        f"table {table!r} has no column {name!r}"
                    )
            raise SQLExecutionError(f"unknown table or alias {table!r}")
        for frame in self.frames:
            hits = [binding for binding, row in frame.items() if name in row]
            if len(hits) > 1:
                raise SQLExecutionError(f"ambiguous column {name!r} "
                                        f"(in {sorted(hits)})")
            if hits:
                return frame[hits[0]][name]
        raise SQLExecutionError(f"unknown column {name!r}")


class Catalog:
    """A case-insensitive mapping of table names to relations."""

    def __init__(self, tables: Optional[Mapping[str, Relation]] = None) -> None:
        self._tables: Dict[str, Relation] = {}
        if tables:
            for name, relation in tables.items():
                self.register(name, relation)

    def register(self, name: str, relation: Relation) -> None:
        self._tables[name.lower()] = relation

    def unregister(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def get(self, name: str) -> Relation:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SQLPlanError(f"unknown table {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)


# --------------------------------------------------------------------------
# Value helpers
# --------------------------------------------------------------------------

_TYPE_RANK = {bool: 0, int: 0, float: 0, str: 1, bytes: 2, bytearray: 2}


def _truthy(value: Any) -> bool:
    return bool(value)  # NULL is not true


def _sort_key(value: Any) -> Tuple[int, int, Any]:
    if value is None:
        return (0, 0, 0)
    rank = _TYPE_RANK.get(type(value), 3)
    if isinstance(value, bytearray):
        value = bytes(value)
    if rank == 3:
        value = repr(value)
    return (1, rank, value)


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    numeric = (int, float)
    compatible = (
        (isinstance(left, numeric) and isinstance(right, numeric))
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, (bytes, bytearray))
            and isinstance(right, (bytes, bytearray)))
    )
    if op == "=":
        return left == right if compatible else False
    if op == "<>":
        return left != right if compatible else True
    if not compatible:
        raise SQLExecutionError(
            f"cannot order {type(left).__name__} against {type(right).__name__}"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SQLExecutionError(f"unknown comparison {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "||":
        return f"{left}{right}"
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise SQLExecutionError(
            f"arithmetic {op!r} needs numbers, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None  # SQL: division by zero yields NULL
            result = left / right
            if isinstance(left, int) and isinstance(right, int) \
                    and result == int(result):
                return int(result)
            return result
        if op == "%":
            if right == 0:
                return None
            # SQL MOD takes the sign of the dividend (C semantics).
            return left - int(left / right) * right
    except (TypeError, OverflowError) as exc:
        raise SQLExecutionError(f"arithmetic failed: {exc}") from exc
    raise SQLExecutionError(f"unknown operator {op!r}")


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    # Case-insensitive, matching MySQL's (and SQLite's ASCII) default.
    return re.compile("".join(parts) + r"\Z", re.IGNORECASE | re.DOTALL)


def _hashable(value: Any) -> Any:
    return bytes(value) if isinstance(value, bytearray) else value


def _cast(value: Any, target: str) -> Any:
    """``CAST(value AS target)``.

    Follows SQL-standard strictness: casting a non-numeric string to a
    number is an error (not SQLite's silent 0). Numeric→integer
    truncates toward zero.
    """
    if value is None:
        return None
    try:
        if target in ("integer", "int", "bigint", "smallint", "timestamp"):
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            return int(float(str(value)))
        if target in ("double", "float", "real", "numeric"):
            if isinstance(value, bool):
                return float(value)
            return float(value)
        if target in ("varchar", "string", "text", "char"):
            if isinstance(value, (bytes, bytearray)):
                return bytes(value).decode("utf-8", errors="replace")
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)
        if target in ("binary", "blob", "bytes"):
            if isinstance(value, (bytes, bytearray)):
                return bytes(value)
            return str(value).encode("utf-8")
        if target in ("boolean", "bool"):
            return _truthy(value)
    except (TypeError, ValueError) as exc:
        raise SQLExecutionError(
            f"cannot cast {value!r} to {target}: {exc}"
        ) from exc
    raise SQLExecutionError(f"unknown cast target {target!r}")


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------


class _Executor:
    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._subplan_cache: Dict[int, SelectPlan] = {}
        self._like_cache: Dict[str, "re.Pattern[str]"] = {}

    # -- entry points --------------------------------------------------------

    def run(self, plan: SelectPlan, outer: Optional[Env] = None) -> Relation:
        columns, rows, contexts = self._run_core(plan, outer)

        for op_name, all_flag, right_plan in plan.set_operations:
            right = self.run(right_plan, outer)
            if len(right.columns) != len(columns):
                raise SQLExecutionError(
                    f"{op_name.upper()} operands have different widths"
                )
            rows = _apply_set_op(op_name, all_flag, rows, right.rows)
            contexts = [None] * len(rows)

        if plan.order_by:
            rows, contexts = self._order_rows(
                plan, columns, rows, contexts, outer
            )
        if plan.offset is not None:
            rows = rows[plan.offset:]
        if plan.limit is not None:
            rows = rows[:plan.limit]
        return Relation(columns, rows)

    def _run_core(self, plan: SelectPlan, outer: Optional[Env]):
        if plan.source is None:
            envs = [Env.root({}) if outer is None else outer.child({})]
            template: Template = {}
        else:
            frames, template = self._execute_source(plan.source, outer)
            if outer is None:
                envs = [Env.root(frame) for frame in frames]
            else:
                envs = [outer.child(frame) for frame in frames]

        if plan.where is not None:
            where = plan.where
            envs = [env for env in envs if _truthy(self.eval(where, env))]

        columns = self._output_columns(plan.items, template)

        if plan.is_aggregate:
            rows, contexts = self._project_groups(plan, envs, template, columns)
        else:
            rows = [self._project_row(plan.items, env, template)
                    for env in envs]
            contexts = list(envs)

        if plan.distinct:
            rows, contexts = _distinct(rows, contexts)
        return columns, rows, contexts

    # -- FROM execution --------------------------------------------------------

    def _execute_source(self, plan: Plan,
                        outer: Optional[Env]) -> Tuple[List[Frame], Template]:
        if isinstance(plan, ScanPlan):
            relation = self.catalog.get(plan.table)
            index = relation._index
            binding = plan.binding
            frames = [
                {binding: LazyRow(index, row)} for row in relation.rows
            ]
            return frames, {binding: relation.columns}

        if isinstance(plan, SubqueryScanPlan):
            relation = self.run(plan.plan, outer)
            index = relation._index
            binding = plan.binding
            frames = [
                {binding: LazyRow(index, row)} for row in relation.rows
            ]
            return frames, {binding: relation.columns}

        if isinstance(plan, NestedLoopJoinPlan):
            return self._nested_loop(plan, outer)

        if isinstance(plan, HashJoinPlan):
            return self._hash_join(plan, outer)

        raise SQLExecutionError(f"unknown plan node {type(plan).__name__}")

    def _nested_loop(self, plan: NestedLoopJoinPlan,
                     outer: Optional[Env]) -> Tuple[List[Frame], Template]:
        left_frames, left_template = self._execute_source(plan.left, outer)
        right_frames, right_template = self._execute_source(plan.right, outer)
        template = {**left_template, **right_template}
        null_right = _null_frame(right_template)

        condition = plan.condition
        results: List[Frame] = []
        for left_frame in left_frames:
            matched = False
            for right_frame in right_frames:
                merged = {**left_frame, **right_frame}
                if condition is not None:
                    env = (Env.root(merged) if outer is None
                           else outer.child(merged))
                    if not _truthy(self.eval(condition, env)):
                        continue
                matched = True
                results.append(merged)
            if plan.kind == "left" and not matched:
                results.append({**left_frame, **null_right})
        return results, template

    def _hash_join(self, plan: HashJoinPlan,
                   outer: Optional[Env]) -> Tuple[List[Frame], Template]:
        left_frames, left_template = self._execute_source(plan.left, outer)
        right_frames, right_template = self._execute_source(plan.right, outer)
        template = {**left_template, **right_template}
        null_right = _null_frame(right_template)
        residual = plan.residual

        table: Dict[Tuple[Any, ...], List[Frame]] = {}
        for right_frame in right_frames:
            env = (Env.root(right_frame) if outer is None
                   else outer.child(right_frame))
            key = tuple(_hashable(self.eval(k, env)) for k in plan.right_keys)
            if any(part is None for part in key):
                continue  # NULL keys never join
            table.setdefault(key, []).append(right_frame)

        results: List[Frame] = []
        for left_frame in left_frames:
            env = (Env.root(left_frame) if outer is None
                   else outer.child(left_frame))
            key = tuple(_hashable(self.eval(k, env)) for k in plan.left_keys)
            matches: Iterable[Frame] = ()
            if not any(part is None for part in key):
                matches = table.get(key, ())
            matched = False
            for right_frame in matches:
                merged = {**left_frame, **right_frame}
                if residual is not None:
                    merged_env = (Env.root(merged) if outer is None
                                  else outer.child(merged))
                    if not _truthy(self.eval(residual, merged_env)):
                        continue
                matched = True
                results.append(merged)
            if plan.kind == "left" and not matched:
                results.append({**left_frame, **null_right})
        return results, template

    # -- projection --------------------------------------------------------

    def _output_columns(self, items: Sequence[SelectItem],
                        template: Template) -> List[str]:
        names: List[str] = []
        for item in items:
            expr = item.expression
            if isinstance(expr, Star):
                if expr.table is not None:
                    if expr.table not in template:
                        raise SQLExecutionError(
                            f"unknown table in {expr.table}.*"
                        )
                    names.extend(template[expr.table])
                else:
                    for binding in template:
                        names.extend(template[binding])
            elif item.alias:
                names.append(item.alias)
            else:
                names.append(_expression_name(expr))
        return _dedupe(names)

    def _project_row(self, items: Sequence[SelectItem],
                     env: Env, template: Template) -> Tuple[Any, ...]:
        values: List[Any] = []
        frame = env.frames[0]
        for item in items:
            expr = item.expression
            if isinstance(expr, Star):
                bindings = ([expr.table] if expr.table is not None
                            else list(template))
                for binding in bindings:
                    row = frame.get(binding)
                    for column in template[binding]:
                        values.append(None if row is None else row.get(column))
            else:
                values.append(self.eval(expr, env))
        return tuple(values)

    def _project_groups(self, plan: SelectPlan, envs: List[Env],
                        template: Template, columns: List[str]):
        if plan.group_by:
            groups: Dict[Tuple[Any, ...], List[Env]] = {}
            for env in envs:
                key = tuple(_hashable(self.eval(expr, env))
                            for expr in plan.group_by)
                groups.setdefault(key, []).append(env)
            group_list = list(groups.values())
        else:
            group_list = [envs]  # single group, even when empty

        rows: List[Tuple[Any, ...]] = []
        contexts: List[Any] = []
        for group in group_list:
            if plan.having is not None:
                if not _truthy(self.eval_group(plan.having, group)):
                    continue
            values: List[Any] = []
            for item in plan.items:
                expr = item.expression
                if isinstance(expr, Star):
                    raise SQLExecutionError(
                        "SELECT * cannot be combined with aggregation"
                    )
                values.append(self.eval_group(expr, group))
            rows.append(tuple(values))
            contexts.append(group)
        return rows, contexts

    # -- ORDER BY ----------------------------------------------------------

    def _order_rows(self, plan: SelectPlan, columns: List[str],
                    rows: List[Tuple[Any, ...]], contexts: List[Any],
                    outer: Optional[Env]):
        aliases = {
            item.alias: item.expression
            for item in plan.items if item.alias
        }
        column_positions = {name: i for i, name in enumerate(columns)}

        def key_for(order_item: OrderItem, row: Tuple[Any, ...],
                    context: Any) -> Any:
            expr = order_item.expression
            if isinstance(expr, Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                position = expr.value - 1
                if not 0 <= position < len(row):
                    raise SQLExecutionError(
                        f"ORDER BY position {expr.value} out of range"
                    )
                return row[position]
            if isinstance(expr, ColumnRef) and expr.table is None:
                if expr.name in column_positions:
                    return row[column_positions[expr.name]]
                if expr.name in aliases:
                    expr = aliases[expr.name]
            if context is None:
                raise SQLExecutionError(
                    "ORDER BY over a set operation must reference output "
                    "columns"
                )
            if plan.is_aggregate:
                return self.eval_group(expr, context)
            return self.eval(expr, context)

        decorated = []
        for index, (row, context) in enumerate(zip(rows, contexts)):
            key = []
            for order_item in plan.order_by:
                value = _sort_key(key_for(order_item, row, context))
                key.append(
                    value if order_item.ascending else _Reversed(value)
                )
            decorated.append((tuple(key), index, row, context))
        decorated.sort(key=lambda entry: (entry[0], entry[1]))
        return ([entry[2] for entry in decorated],
                [entry[3] for entry in decorated])

    # -- expression evaluation -----------------------------------------------

    def eval(self, node: Node, env: Env) -> Any:
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, ColumnRef):
            return env.lookup(node.name, node.table)
        if isinstance(node, UnaryOp):
            return self._eval_unary(node, env)
        if isinstance(node, BinaryOp):
            return self._eval_binary(node, env)
        if isinstance(node, FunctionCall):
            if node.name in AGGREGATE_FUNCTIONS:
                raise SQLExecutionError(
                    f"aggregate {node.name}() used outside GROUP BY context"
                )
            args = [self.eval(arg, env) for arg in node.args]
            return call_scalar(node.name, args)
        if isinstance(node, InExpr):
            return self._eval_in(node, env)
        if isinstance(node, BetweenExpr):
            return self._eval_between(node, env)
        if isinstance(node, LikeExpr):
            return self._eval_like(node, env)
        if isinstance(node, IsNullExpr):
            value = self.eval(node.operand, env)
            result = value is None
            return not result if node.negated else result
        if isinstance(node, ExistsExpr):
            relation = self.run_statement(node.subquery, env)
            result = len(relation) > 0
            return not result if node.negated else result
        if isinstance(node, ScalarSubquery):
            return self.run_statement(node.subquery, env).scalar()
        if isinstance(node, CaseExpr):
            return self._eval_case(node, env)
        if isinstance(node, CastExpr):
            return _cast(self.eval(node.operand, env), node.target)
        raise SQLExecutionError(f"cannot evaluate {type(node).__name__}")

    def _eval_unary(self, node: UnaryOp, env: Env) -> Any:
        value = self.eval(node.operand, env)
        if node.op == "not":
            if value is None:
                return None
            return not _truthy(value)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SQLExecutionError(f"unary {node.op} needs a number")
        return -value if node.op == "-" else value

    def _eval_binary(self, node: BinaryOp, env: Env) -> Any:
        op = node.op
        if op == "and":
            left = self.eval(node.left, env)
            if left is not None and not _truthy(left):
                return False
            right = self.eval(node.right, env)
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.eval(node.left, env)
            if left is not None and _truthy(left):
                return True
            right = self.eval(node.right, env)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        return _arith(op, left, right)

    def _eval_in(self, node: InExpr, env: Env) -> Any:
        value = self.eval(node.operand, env)
        if value is None:
            return None
        if node.subquery is not None:
            relation = self.run_statement(node.subquery, env)
            if len(relation.columns) != 1:
                raise SQLExecutionError("IN subquery must return one column")
            options: Iterable[Any] = [row[0] for row in relation.rows]
        else:
            # Up to the first match only: a later option may raise.
            options = (self.eval(option, env)
                       for option in node.options or ())
        saw_null = False
        for option in options:
            if option is None:
                saw_null = True
            elif _compare("=", value, option):
                return not node.negated
        if saw_null:
            return None
        return node.negated

    def _eval_between(self, node: BetweenExpr, env: Env) -> Any:
        value = self.eval(node.operand, env)
        # The lower comparison runs (and may raise) before the upper
        # bound is evaluated.
        lower_ok = _compare(">=", value, self.eval(node.low, env))
        upper_ok = _compare("<=", value, self.eval(node.high, env))
        # x BETWEEN a AND b  ==  x >= a AND x <= b  under three-valued logic.
        if lower_ok is False or upper_ok is False:
            result = False
        elif lower_ok is None or upper_ok is None:
            return None
        else:
            result = True
        return not result if node.negated else result

    def _eval_like(self, node: LikeExpr, env: Env) -> Any:
        value = self.eval(node.operand, env)
        pattern = self.eval(node.pattern, env)
        if value is None or pattern is None:
            return None
        if pattern not in self._like_cache:
            self._like_cache[pattern] = _like_to_regex(str(pattern))
        result = bool(self._like_cache[pattern].match(str(value)))
        return not result if node.negated else result

    def _eval_case(self, node: CaseExpr, env: Env) -> Any:
        if node.operand is not None:
            subject = self.eval(node.operand, env)
            for match, result in node.branches:
                candidate = self.eval(match, env)
                if _compare("=", subject, candidate):
                    return self.eval(result, env)
        else:
            for condition, result in node.branches:
                if _truthy(self.eval(condition, env)):
                    return self.eval(result, env)
        if node.default is not None:
            return self.eval(node.default, env)
        return None

    # -- aggregate-aware evaluation ------------------------------------------

    def eval_group(self, node: Node, group: List[Env]) -> Any:
        if isinstance(node, FunctionCall) and node.name in AGGREGATE_FUNCTIONS:
            if node.star:
                return call_aggregate(node.name, [], star=True,
                                      row_count=len(group))
            if len(node.args) != 1:
                raise SQLExecutionError(
                    f"aggregate {node.name}() takes exactly one argument"
                )
            values = [self.eval(node.args[0], env) for env in group]
            return call_aggregate(node.name, values, distinct=node.distinct)
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, ColumnRef):
            if not group:
                return None
            return self.eval(node, group[0])
        if isinstance(node, UnaryOp):
            value = self.eval_group(node.operand, group)
            return self._apply_unary_value(node.op, value)
        if isinstance(node, BinaryOp):
            return self._eval_binary_group(node, group)
        if isinstance(node, FunctionCall):
            args = [self.eval_group(arg, group) for arg in node.args]
            return call_scalar(node.name, args)
        if isinstance(node, CastExpr):
            return _cast(self.eval_group(node.operand, group), node.target)
        if isinstance(node, CaseExpr):
            # Evaluate CASE per group using group-aware recursion.
            if node.operand is not None:
                subject = self.eval_group(node.operand, group)
                for match, result in node.branches:
                    if _compare("=", subject, self.eval_group(match, group)):
                        return self.eval_group(result, group)
            else:
                for condition, result in node.branches:
                    if _truthy(self.eval_group(condition, group)):
                        return self.eval_group(result, group)
            if node.default is not None:
                return self.eval_group(node.default, group)
            return None
        if isinstance(node, (InExpr, BetweenExpr, LikeExpr, IsNullExpr,
                             ExistsExpr, ScalarSubquery)):
            if not group:
                raise SQLExecutionError(
                    "cannot evaluate row predicate over an empty group"
                )
            return self.eval(node, group[0])
        raise SQLExecutionError(
            f"cannot evaluate {type(node).__name__} in GROUP BY context"
        )

    def _apply_unary_value(self, op: str, value: Any) -> Any:
        if op == "not":
            return None if value is None else not _truthy(value)
        if value is None:
            return None
        return -value if op == "-" else value

    def _eval_binary_group(self, node: BinaryOp, group: List[Env]) -> Any:
        op = node.op
        left = self.eval_group(node.left, group)
        right = self.eval_group(node.right, group)
        if op == "and":
            if left is not None and not _truthy(left):
                return False
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            if (left is not None and _truthy(left)) \
                    or (right is not None and _truthy(right)):
                return True
            if left is None or right is None:
                return None
            return False
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        return _arith(op, left, right)

    # -- subqueries ----------------------------------------------------------

    def run_statement(self, statement: SelectStatement,
                      outer: Env) -> Relation:
        key = id(statement)
        plan = self._subplan_cache.get(key)
        if plan is None:
            plan = plan_select(statement)
            self._subplan_cache[key] = plan
        return self.run(plan, outer)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


# --------------------------------------------------------------------------
# Helpers shared by the executor
# --------------------------------------------------------------------------


def _null_frame(template: Template) -> Frame:
    return {
        binding: {column: None for column in columns}
        for binding, columns in template.items()
    }


# Column naming lives in repro.sqlengine.introspect so the static
# analyzer infers exactly the names the executor will produce.
_dedupe = dedupe_columns
_expression_name = expression_name


def _distinct(rows: List[Tuple[Any, ...]], contexts: List[Any]):
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


def _apply_set_op(op: str, all_flag: bool, left: List[Tuple[Any, ...]],
                  right: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    def norm(rows: List[Tuple[Any, ...]]):
        return [tuple(_hashable(value) for value in row) for row in rows]

    left_n = norm(left)
    right_n = norm(right)

    if op == "union":
        combined = left_n + right_n
        if all_flag:
            return combined
        return _unique(combined)
    if op == "intersect":
        if all_flag:
            counts = _counts(right_n)
            result = []
            for row in left_n:
                if counts.get(row, 0) > 0:
                    counts[row] -= 1
                    result.append(row)
            return result
        right_set = set(right_n)
        return _unique([row for row in left_n if row in right_set])
    if op == "except":
        if all_flag:
            counts = _counts(right_n)
            result = []
            for row in left_n:
                if counts.get(row, 0) > 0:
                    counts[row] -= 1
                else:
                    result.append(row)
            return result
        right_set = set(right_n)
        return _unique([row for row in left_n if row not in right_set])
    raise SQLExecutionError(f"unknown set operation {op!r}")


def _unique(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen = set()
    result = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result


def _counts(rows: List[Tuple[Any, ...]]) -> Dict[Tuple[Any, ...], int]:
    counts: Dict[Tuple[Any, ...], int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


def execute_plan(plan: SelectPlan, catalog: Catalog) -> Relation:
    """Run a previously planned query against ``catalog``."""
    return _Executor(catalog).run(plan)


def execute(sql: str, catalog: Catalog) -> Relation:
    """Parse, plan and run ``sql`` against ``catalog``."""
    return execute_plan(plan_select(parse_select(sql)), catalog)
