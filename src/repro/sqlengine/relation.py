"""In-memory relations: the tables the SQL engine executes over.

A :class:`Relation` is a named list of columns plus rows stored as tuples.
Window contents are converted to relations ("unnested into flat relations",
paper Section 3, step 2) before per-source queries run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SQLExecutionError


class Relation:
    """An ordered, named collection of equally shaped rows.

    Columns are case-insensitive and stored lower-cased. Rows are tuples
    aligned with ``columns``.
    """

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns: Sequence[str],
                 rows: Optional[Iterable[Sequence[Any]]] = None) -> None:
        self.columns: Tuple[str, ...] = tuple(c.lower() for c in columns)
        if len(set(self.columns)) != len(self.columns):
            raise SQLExecutionError(
                f"duplicate column names in relation: {self.columns}"
            )
        self.rows: List[Tuple[Any, ...]] = []
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.columns)
        }
        if rows is not None:
            for row in rows:
                self.append(row)

    @classmethod
    def from_dicts(cls, columns: Sequence[str],
                   dicts: Iterable[Mapping[str, Any]]) -> "Relation":
        """Build from mapping rows; missing keys become ``None``."""
        relation = cls(columns)
        lowered = relation.columns
        # Rows off one producer share a key set; normalize it once per
        # distinct shape instead of lower-casing every key of every row.
        key_maps: Dict[Tuple[str, ...], Tuple[Optional[str], ...]] = {}
        for mapping in dicts:
            shape = tuple(mapping.keys())
            lookup = key_maps.get(shape)
            if lookup is None:
                # Duplicate keys differing only in case: the last one
                # wins, matching the dict-comprehension this replaces.
                by_lower = {key.lower(): key for key in shape}
                lookup = tuple(by_lower.get(col) for col in lowered)
                key_maps[shape] = lookup
            relation.rows.append(
                tuple(None if key is None else mapping.get(key)
                      for key in lookup)
            )
        return relation

    @classmethod
    def adopt(cls, columns: Sequence[str], rows: List[Any]) -> "Relation":
        """A relation over ``rows`` as given, neither copied nor checked:
        the caller vouches each row is a tuple as wide as ``columns``."""
        relation = cls(columns)
        relation.rows = rows
        return relation

    def append(self, row: Sequence[Any]) -> None:
        values = tuple(row)
        if len(values) != len(self.columns):
            raise SQLExecutionError(
                f"row width {len(values)} != relation width {len(self.columns)}"
            )
        self.rows.append(values)

    def column_position(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SQLExecutionError(f"no column {name!r}") from None

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        position = self.column_position(name)
        return [row[position] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._index

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def first(self) -> Optional[Dict[str, Any]]:
        if not self.rows:
            return None
        return dict(zip(self.columns, self.rows[0]))

    def scalar(self) -> Any:
        """The single value of a 1x1 relation (for scalar subqueries)."""
        if len(self.rows) > 1:
            raise SQLExecutionError("scalar subquery returned multiple rows")
        if not self.rows:
            return None
        if len(self.columns) != 1:
            raise SQLExecutionError("scalar subquery returned multiple columns")
        return self.rows[0][0]

    def __repr__(self) -> str:
        return f"Relation({list(self.columns)}, {len(self.rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """ASCII rendering (used by examples and the web facade)."""
        header = list(self.columns)
        shown = [
            ["<bytes>" if isinstance(v, (bytes, bytearray)) else str(v)
             for v in row]
            for row in self.rows[:limit]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in shown)) if shown
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(v.ljust(w) for v, w in zip(row, widths))
            for row in shown
        )
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
