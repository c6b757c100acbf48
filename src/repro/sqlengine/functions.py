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


#: Every finite double is an integer multiple of 2**-1074, so a sum of
#: doubles scaled by 2**1074 is an exact Python int.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS


class ExactSum:
    """SQL ``SUM`` as a running accumulator: the exact sum of the ints
    and doubles added and not yet removed, rounded once on read.

    All-int inputs sum to an exact int. With any double among them the
    answer is the exact rational sum rounded to the nearest double;
    ``inf + -inf`` or any NaN gives NaN and a sum past the double range
    gives ±inf. Infinities and NaNs are counted, not summed, so removing
    one retracts it exactly. Anything else raises ``TypeError``.
    """

    __slots__ = ("ints", "scaled", "floats", "pinf", "ninf", "nan")

    def __init__(self) -> None:
        self.ints: Any = 0                # exact sum of the int inputs
        self.scaled = 0                   # finite doubles' sum * 2**1074
        self.floats = self.pinf = self.ninf = self.nan = 0

    # add and remove are written out apart: they run twice per arrival
    # on the delta states' hot path, where a sign argument costs.
    def add(self, value: Any) -> None:
        if type(value) is float:
            self.floats += 1
            try:
                num, den = value.as_integer_ratio()
            except (OverflowError, ValueError):   # inf, nan
                self._special(value, 1)
            else:
                self.scaled += num << (_SCALE_BITS + 1 - den.bit_length())
        elif isinstance(value, int):
            self.ints += value
        else:
            raise TypeError(f"cannot sum a {type(value).__name__}")

    def remove(self, value: Any) -> None:
        if type(value) is float:
            self.floats -= 1
            try:
                num, den = value.as_integer_ratio()
            except (OverflowError, ValueError):
                self._special(value, -1)
            else:
                self.scaled -= num << (_SCALE_BITS + 1 - den.bit_length())
        else:
            self.ints -= value

    def _special(self, value: float, sign: int) -> None:
        if value != value:
            self.nan += sign
        elif value > 0:
            self.pinf += sign
        else:
            self.ninf += sign

    def total(self) -> Any:
        if not self.floats:
            return self.ints
        if self.nan or (self.pinf and self.ninf):
            return math.nan
        if self.pinf or self.ninf:
            return math.inf if self.pinf else -math.inf
        exact = (self.ints << _SCALE_BITS) + self.scaled
        try:
            return exact / _SCALE         # int / int rounds correctly
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _sum(values: List[Any]) -> Any:
    if not values:
        return None
    try:
        total = sum(values)
    except OverflowError:                 # an int too large for a float
        total = 0.0
    if type(total) is not float:
        return total                      # all ints: already exact
    exact = ExactSum()
    for value in values:
        exact.add(value)
    return exact.total()


def _avg(values: List[Any]) -> Any:
    return _sum(values) / len(values) if values else None


def _stddev(values: List[Any]) -> Any:
    return statistics.pstdev(values) if len(values) >= 1 else None


def _variance(values: List[Any]) -> Any:
    return statistics.pvariance(values) if len(values) >= 1 else None


AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "avg": _avg,
    "sum": _sum,
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
