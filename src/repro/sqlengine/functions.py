"""Scalar and aggregate SQL functions.

All functions follow SQL null semantics: scalar functions return ``NULL``
when any required argument is ``NULL`` (except ``COALESCE``/``IFNULL``);
aggregates skip ``NULL`` inputs, and aggregates over an empty or all-null
input return ``NULL`` (``COUNT`` returns 0).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Callable, Dict, List, Sequence

from repro.exceptions import SQLExecutionError

# --------------------------------------------------------------------------
# Scalar functions
# --------------------------------------------------------------------------


def _nullable(func: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return func(*args)
    return wrapper


def _substr(text: str, start: int, length: int = None) -> str:  # type: ignore[assignment]
    # SQL SUBSTR is 1-based; negative start counts from the end.
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = max(len(text) + start, 0)
    else:
        begin = 0
    if length is None:
        return text[begin:]
    if length < 0:
        return ""
    return text[begin:begin + length]


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a: Any, b: Any) -> Any:
    if a is None:
        return None
    return None if a == b else a


def _round(value: float, digits: int = 0) -> float:
    factor = 10 ** digits
    # SQL rounds half away from zero; Python's round() is banker's rounding.
    scaled = value * factor
    rounded = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
    result = rounded / factor
    return int(result) if digits <= 0 else result


SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": _nullable(abs),
    "round": _nullable(_round),
    "floor": _nullable(lambda v: int(math.floor(v))),
    "ceil": _nullable(lambda v: int(math.ceil(v))),
    "ceiling": _nullable(lambda v: int(math.ceil(v))),
    "sqrt": _nullable(math.sqrt),
    "power": _nullable(lambda base, exp: base ** exp),
    "mod": _nullable(lambda a, b: a % b),
    "sign": _nullable(lambda v: (v > 0) - (v < 0)),
    "upper": _nullable(lambda s: str(s).upper()),
    "lower": _nullable(lambda s: str(s).lower()),
    "length": _nullable(len),
    "trim": _nullable(lambda s: str(s).strip()),
    "ltrim": _nullable(lambda s: str(s).lstrip()),
    "rtrim": _nullable(lambda s: str(s).rstrip()),
    "substr": _nullable(_substr),
    "substring": _nullable(_substr),
    "replace": _nullable(lambda s, old, new: str(s).replace(str(old), str(new))),
    "instr": _nullable(lambda s, sub: str(s).find(str(sub)) + 1),
    "concat": _nullable(lambda *parts: "".join(str(p) for p in parts)),
    "coalesce": _coalesce,
    "ifnull": _coalesce,
    "nullif": _nullif,
    "octet_length": _nullable(
        lambda v: len(v) if isinstance(v, (bytes, bytearray))
        else len(str(v).encode("utf-8"))
    ),
}


def call_scalar(name: str, args: Sequence[Any]) -> Any:
    try:
        func = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise SQLExecutionError(f"unknown function {name!r}") from None
    try:
        return func(*args)
    except SQLExecutionError:
        raise
    except Exception as exc:
        raise SQLExecutionError(f"{name}() failed: {exc}") from exc


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------


def _agg_values(values: List[Any], distinct: bool) -> List[Any]:
    non_null = [v for v in values if v is not None]
    if not distinct:
        return non_null
    seen = set()
    unique = []
    for value in non_null:
        key = value if not isinstance(value, (bytes, bytearray)) else bytes(value)
        if key not in seen:
            seen.add(key)
            unique.append(value)
    return unique


def _avg(values: List[Any]) -> Any:
    return sum(values) / len(values) if values else None


def _stddev(values: List[Any]) -> Any:
    return statistics.pstdev(values) if len(values) >= 1 else None


def _variance(values: List[Any]) -> Any:
    return statistics.pvariance(values) if len(values) >= 1 else None


AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "avg": _avg,
    "sum": lambda vs: sum(vs) if vs else None,
    "min": lambda vs: min(vs) if vs else None,
    "max": lambda vs: max(vs) if vs else None,
    "count": len,
    "stddev": _stddev,
    "variance": _variance,
    "median": lambda vs: statistics.median(vs) if vs else None,
    "group_concat": lambda vs: ",".join(str(v) for v in vs) if vs else None,
    "first": lambda vs: vs[0] if vs else None,
    "last": lambda vs: vs[-1] if vs else None,
}


def call_aggregate(name: str, values: List[Any], distinct: bool = False,
                   star: bool = False, row_count: int = 0) -> Any:
    """Evaluate aggregate ``name``.

    ``star`` handles ``COUNT(*)`` which counts rows including nulls.
    """
    if star:
        if name != "count":
            raise SQLExecutionError(f"{name}(*) is not valid SQL")
        return row_count
    try:
        func = AGGREGATES[name]
    except KeyError:
        raise SQLExecutionError(f"unknown aggregate {name!r}") from None
    try:
        return func(_agg_values(values, distinct))
    except SQLExecutionError:
        raise
    except Exception as exc:
        raise SQLExecutionError(f"{name} aggregate failed: {exc}") from exc
