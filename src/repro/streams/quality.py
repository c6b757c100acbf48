"""Stream quality monitoring.

The Input Stream Manager "ensures stream quality (disconnections,
unexpected delays, missing values, etc.)" — paper, Section 4. The monitor
observes every element entering a stream source and keeps online statistics
that the web interface exposes and that tests/benchmarks assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.streams.element import StreamElement


@dataclass
class QualityReport:
    """Snapshot of a source's health."""

    elements_seen: int = 0
    missing_value_count: int = 0
    late_count: int = 0
    out_of_order_count: int = 0
    disconnect_count: int = 0
    max_delay_ms: int = 0
    mean_interarrival_ms: float = 0.0
    missing_by_field: Dict[str, int] = field(default_factory=dict)

    @property
    def missing_value_ratio(self) -> float:
        if self.elements_seen == 0:
            return 0.0
        return self.missing_value_count / self.elements_seen

    def as_dict(self) -> Dict[str, object]:
        return {
            "elements_seen": self.elements_seen,
            "missing_value_count": self.missing_value_count,
            "missing_value_ratio": round(self.missing_value_ratio, 4),
            "late_count": self.late_count,
            "out_of_order_count": self.out_of_order_count,
            "disconnect_count": self.disconnect_count,
            "max_delay_ms": self.max_delay_ms,
            "mean_interarrival_ms": round(self.mean_interarrival_ms, 3),
            "missing_by_field": dict(self.missing_by_field),
        }


class StreamQualityMonitor:
    """Online quality statistics for one stream source.

    Parameters
    ----------
    late_threshold_ms:
        An element is *late* when its arrival time exceeds its own
        timestamp by more than this threshold (network/processing delays
        are "inherent properties of the observation process" the paper
        insists on exposing rather than hiding).
    """

    def __init__(self, late_threshold_ms: int = 1000) -> None:
        if late_threshold_ms < 0:
            raise ValueError("late threshold cannot be negative")
        self.late_threshold_ms = late_threshold_ms
        self._report = QualityReport()
        self._last_timed: Optional[int] = None
        self._last_arrival: Optional[int] = None
        self._interarrival_sum = 0
        self._interarrival_count = 0

    def observe(self, element: StreamElement) -> None:
        """Record one element (after implicit timestamping)."""
        report = self._report
        report.elements_seen += 1

        for name, value in element.items():
            if value is None:
                report.missing_value_count += 1
                report.missing_by_field[name] = (
                    report.missing_by_field.get(name, 0) + 1
                )

        timed = element.timed
        arrival = element.arrival_time
        if timed is not None and arrival is not None:
            delay = arrival - timed
            if delay > report.max_delay_ms:
                report.max_delay_ms = delay
            if delay > self.late_threshold_ms:
                report.late_count += 1

        if timed is not None:
            if self._last_timed is not None and timed < self._last_timed:
                report.out_of_order_count += 1
            self._last_timed = max(timed, self._last_timed or timed)

        if arrival is not None:
            if self._last_arrival is not None:
                self._interarrival_sum += arrival - self._last_arrival
                self._interarrival_count += 1
                report.mean_interarrival_ms = (
                    self._interarrival_sum / self._interarrival_count
                )
            self._last_arrival = arrival

    def record_disconnect(self) -> None:
        self._report.disconnect_count += 1

    @property
    def report(self) -> QualityReport:
        return self._report

    def healthy(self, max_missing_ratio: float = 0.5,
                max_late_ratio: float = 0.5) -> bool:
        """A coarse health verdict used by the monitoring interface."""
        r = self._report
        if r.elements_seen == 0:
            return True
        late_ratio = r.late_count / r.elements_seen
        return (r.missing_value_ratio <= max_missing_ratio
                and late_ratio <= max_late_ratio)

    def __repr__(self) -> str:
        return f"StreamQualityMonitor({self._report.as_dict()})"
