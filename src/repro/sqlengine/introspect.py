"""AST introspection helpers shared by the executor and static analysis.

The executor needs output column names for result relations; the
``repro.analysis`` schema pass needs the same naming rules plus column
extraction so its inferred schemas line up exactly with what the engine
produces at runtime. Keeping both on one implementation guarantees the
analyzer never disagrees with the executor about a column's name.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.sqlengine.ast_nodes import (
    ColumnRef, FunctionCall, Literal, Node, SelectStatement,
)


def expression_name(expr: Node) -> str:
    """The output column name the engine gives an unaliased select item."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        if expr.star:
            return f"{expr.name}_star"
        if len(expr.args) == 1 and isinstance(expr.args[0], ColumnRef):
            return f"{expr.name}_{expr.args[0].name}"
        return expr.name
    if isinstance(expr, Literal):
        return "literal"
    return "expr"


def dedupe_columns(names: List[str]) -> List[str]:
    """Disambiguate duplicate output names the way the executor does
    (``a, a`` becomes ``a, a_2``).

    The first use of a name keeps it; a repeat becomes ``name_N`` with
    the smallest ``N >= 2`` that no column of ``names`` already has, so
    ``v, v, k as v_2`` gives ``v, v_3, v_2``."""
    taken = set(names)
    seen = set()
    result = []
    for name in names:
        if name in seen:
            suffix = 2
            while f"{name}_{suffix}" in taken:
                suffix += 1
            name = f"{name}_{suffix}"
            taken.add(name)
        seen.add(name)
        result.append(name)
    return result


def expression_columns(node: Node) -> Iterator[ColumnRef]:
    """Column references in an expression tree, excluding those that
    belong to nested subqueries (which resolve in their own scope)."""
    if isinstance(node, ColumnRef):
        yield node
        return
    for child in node.children():
        if isinstance(child, SelectStatement):
            continue
        yield from expression_columns(child)
