"""AST node definitions for the SQL engine.

All nodes are immutable dataclasses. Expression nodes implement nothing
themselves — evaluation lives in the executor — but they expose
:meth:`walk` for analysis passes (the planner uses it to find aggregates
and column references, the rewriter to find table names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple, Union


def _nodes_in(value: Any) -> Iterator["Node"]:
    if isinstance(value, Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes_in(item)


class Node:
    """Base class for every AST node. Concrete nodes are dataclasses."""

    def children(self) -> Iterator["Node"]:
        """Direct child nodes, found by inspecting dataclass fields."""
        for name in getattr(self, "__dataclass_fields__", ()):
            yield from _nodes_in(getattr(self, name))

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children():
            yield from child.walk()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal(Node):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Node):
    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Node):
    """``*`` or ``alias.*`` in a select list."""
    table: Optional[str] = None


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str                      # "-", "+", "not"
    operand: Node


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str                      # arithmetic, comparison, "and", "or", "||"
    left: Node
    right: Node


@dataclass(frozen=True)
class FunctionCall(Node):
    name: str
    args: Tuple[Node, ...]
    distinct: bool = False
    star: bool = False           # COUNT(*)


@dataclass(frozen=True)
class InExpr(Node):
    operand: Node
    options: Optional[Tuple[Node, ...]]       # literal list form
    subquery: Optional["SelectStatement"]     # subquery form
    negated: bool = False


@dataclass(frozen=True)
class BetweenExpr(Node):
    operand: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Node):
    operand: Node
    pattern: Node
    negated: bool = False


@dataclass(frozen=True)
class IsNullExpr(Node):
    operand: Node
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr(Node):
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Node):
    subquery: "SelectStatement"


@dataclass(frozen=True)
class CastExpr(Node):
    """``CAST(expr AS type)`` — explicit type conversion."""
    operand: Node
    target: str                  # normalized type name, e.g. "integer"


@dataclass(frozen=True)
class CaseExpr(Node):
    """Searched or simple CASE; for the simple form ``operand`` is set."""
    operand: Optional[Node]
    branches: Tuple[Tuple[Node, Node], ...]   # (condition/match, result)
    default: Optional[Node]


# --------------------------------------------------------------------------
# FROM clause
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRef(Node):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(Node):
    subquery: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(Node):
    left: Node                   # TableRef | SubqueryRef | Join
    right: Node                  # TableRef | SubqueryRef
    kind: str                    # "inner", "left", "cross"
    condition: Optional[Node]    # ON expression (None for cross)


FromItem = Union[TableRef, SubqueryRef, Join]


# --------------------------------------------------------------------------
# SELECT
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem(Node):
    expression: Node             # expression or Star
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    expression: Node
    ascending: bool = True


@dataclass(frozen=True)
class SetOperation(Node):
    op: str                      # "union", "intersect", "except"
    all: bool
    right: "SelectStatement"


@dataclass(frozen=True)
class SelectStatement(Node):
    items: Tuple[SelectItem, ...]
    from_items: Tuple[Node, ...] = ()
    where: Optional[Node] = None
    group_by: Tuple[Node, ...] = ()
    having: Optional[Node] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    set_operations: Tuple[SetOperation, ...] = ()


AGGREGATE_FUNCTIONS = frozenset({"avg", "sum", "min", "max", "count",
                                 "stddev", "variance", "group_concat",
                                 "median", "first", "last"})


def has_subquery(node: Node) -> bool:
    """True if the expression tree embeds a subquery (which only the
    interpreter evaluates)."""
    return any(isinstance(child, SelectStatement) for child in node.walk())


def contains_aggregate(node: Node) -> bool:
    """True if the expression tree calls an aggregate function (without
    descending into subqueries, which aggregate in their own scope)."""
    if isinstance(node, (ScalarSubquery, ExistsExpr)):
        return False
    if isinstance(node, InExpr):
        if node.operand is not None and contains_aggregate(node.operand):
            return True
        if node.options:
            return any(contains_aggregate(opt) for opt in node.options)
        return False
    if isinstance(node, FunctionCall) and node.name in AGGREGATE_FUNCTIONS:
        return True
    return any(contains_aggregate(child) for child in node.children()
               if not isinstance(child, SelectStatement))
