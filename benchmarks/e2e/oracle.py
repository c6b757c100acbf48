"""Reference answers: every result the subscriber saw is checked here.

Each check returns ``(errors, bad)``: human-readable mismatches (any
one fails the run) and the indexes of the results they concern, so the
tuples those results cover count as failed, not as answered.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Set, Tuple

from benchmarks.e2e.workloads import Values

Verdict = Tuple[List[str], Set[int]]

#: Mismatches listed per check before the rest are only counted.
_MAX_LISTED = 5

#: The ``gateway_scan`` filter, ``where v > 10``.
SCAN_THRESHOLD = 10.0


class _Errors:
    def __init__(self) -> None:
        self.messages: List[str] = []
        self.bad: Set[int] = set()
        self._dropped = 0

    def add(self, index: int, message: str) -> None:
        self.bad.add(index)
        if len(self.messages) < _MAX_LISTED:
            self.messages.append(message)
        else:
            self._dropped += 1

    def verdict(self) -> Verdict:
        messages = list(self.messages)
        if self._dropped:
            messages.append(f"... and {self._dropped} more")
        return messages, self.bad


def _close(got: Any, want: float) -> bool:
    return isinstance(got, (int, float)) and math.isclose(
        got, want, rel_tol=1e-9, abs_tol=1e-9)


def check_gateway_delta(values: Values, notes: Sequence[Sequence[Any]],
                        window: int) -> Verdict:
    """A result naming ``seq`` must carry the mean of ``v`` over the
    last ``window`` tuples up to ``seq``. Notes are (t_ns, seq, v, k)."""
    errors = _Errors()
    top = max((note[1] for note in notes
               if isinstance(note[1], int)), default=0)
    # v has two decimals: integer prefix sums keep the reference exact.
    prefix = [0]
    for seq in range(top + 1):
        prefix.append(prefix[-1] + round(values.gateway_tuple(seq)["v"] * 100))
    previous = -1
    for index, (__, seq, v, ___) in enumerate(notes):
        if not isinstance(seq, int) or seq < 0:
            errors.add(index, f"result {index}: seq {seq!r} is no tuple")
            continue
        low = max(0, seq - window + 1)
        want = (prefix[seq + 1] - prefix[low]) / (seq + 1 - low) / 100.0
        if not _close(v, want):
            errors.add(index, f"result {index}: seq={seq} carries v={v!r}, "
                              f"reference mean is {want!r}")
        if seq < previous:
            errors.add(index, f"result {index}: seq went back "
                              f"{previous} -> {seq}")
        previous = seq
    return errors.verdict()


def newest_qualifying(values: Values, top: int) -> List[int]:
    """Per seq ``s`` in ``0..top``: the newest seq <= ``s`` whose ``v``
    passes the ``gateway_scan`` filter (-1 when none does)."""
    newest = []
    last = -1
    for seq in range(top + 1):
        if values.gateway_tuple(seq)["v"] > SCAN_THRESHOLD:
            last = seq
        newest.append(last)
    return newest


def check_gateway_scan(values: Values, notes: Sequence[Sequence[Any]],
                       batch_ends: Sequence[int]) -> Verdict:
    """A result must be the newest qualifying tuple as of the end of
    some request (batches end on request ends), carry that tuple's
    ``v`` and ``k``, and never go back."""
    errors = _Errors()
    newest = newest_qualifying(values, max(batch_ends, default=0))
    answers = {newest[end] for end in batch_ends}
    previous = -1
    for index, (__, seq, v, k) in enumerate(notes):
        if seq not in answers:
            errors.add(index, f"result {index}: seq={seq!r} is not the "
                              f"newest v>{SCAN_THRESHOLD} as of any request")
            continue
        want = values.gateway_tuple(seq)
        if not _close(v, want["v"]) or k != want["k"]:
            errors.add(index, f"result {index}: seq={seq} carries "
                              f"v={v!r} k={k!r}, tuple had {want}")
        if seq < previous:
            errors.add(index, f"result {index}: seq went back "
                              f"{previous} -> {seq}")
        previous = seq
    return errors.verdict()


def check_device_fleet(outputs: Sequence[Sequence[Any]],
                       ticks: Sequence[int], payload_bytes: int) -> Verdict:
    """Per sensor: one output per tick, its own ``camera_id``, the full
    image, ``timed`` never going back. Outputs are (sensor, t_ns,
    camera_id, timed, image_bytes); ``ticks[j]`` counts sensor j's."""
    errors = _Errors()
    seen = [0] * len(ticks)
    last_timed = [-1] * len(ticks)
    for index, (sensor, __, camera_id, timed, size) in enumerate(outputs):
        seen[sensor] += 1
        if camera_id != sensor + 1:
            errors.add(index, f"output {index}: sensor {sensor} emitted "
                              f"camera_id={camera_id!r}")
        if size != payload_bytes:
            errors.add(index, f"output {index}: image of {size} bytes")
        if not isinstance(timed, int) or timed < last_timed[sensor]:
            errors.add(index, f"output {index}: timed went back "
                              f"{last_timed[sensor]} -> {timed!r}")
        else:
            last_timed[sensor] = timed
    for sensor, (got, want) in enumerate(zip(seen, ticks)):
        if got != want:
            errors.add(-1, f"sensor {sensor}: {got} outputs for "
                           f"{want} ticks")
    return errors.verdict()


def check_fanout_counts(deliveries: Sequence[Sequence[Any]], clients: int,
                        arrivals: int) -> Verdict:
    """Exactly one notification per client per arrival. Deliveries are
    (client, t_ns, row_count)."""
    errors = _Errors()
    seen = [0] * clients
    for client, __, ___ in deliveries:
        seen[client] += 1
    for client, got in enumerate(seen):
        if got != arrivals:
            errors.add(-1, f"client {client}: {got} notifications for "
                           f"{arrivals} arrivals")
    return errors.verdict()


def _rows_equal(got: Sequence[Sequence[Any]],
                want: Sequence[Sequence[Any]]) -> bool:
    if len(got) != len(want):
        return False
    for got_row, want_row in zip(got, want):
        if len(got_row) != len(want_row):
            return False
        for a, b in zip(got_row, want_row):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not _close(a, b):
                    return False
            elif a != b:
                return False
    return True


def check_fanout_final(subscriptions: Sequence[Any], catalog: Any
                       ) -> List[str]:
    """Each client's ``last_result`` must equal what the tree-walking
    interpreter (the repo's designated oracle) computes over the final
    table contents."""
    from repro.sqlengine.executor import execute_plan
    from repro.sqlengine.parser import parse_select
    from repro.sqlengine.planner import plan_select

    errors: List[str] = []
    for subscription in subscriptions:
        want = execute_plan(plan_select(parse_select(subscription.sql)),
                            catalog)
        got = subscription.last_result
        if got is None or tuple(got.columns) != tuple(want.columns) \
                or not _rows_equal(got.rows, want.rows):
            errors.append(f"{subscription.name}: last result differs from "
                          f"the interpreter for {subscription.sql!r}")
    return errors


def covered_by(results: Sequence[int], wanted: Sequence[int]) -> List[int]:
    """For each ``wanted`` seq (ascending), the index of the first
    result whose seq reaches it, or -1. ``results`` are the result seqs
    in arrival order."""
    indexes: List[int] = []
    position = 0
    best = -1
    for want in wanted:
        while best < want and position < len(results):
            best = max(best, results[position])
            position += 1
        indexes.append(position - 1 if best >= want else -1)
    return indexes
