"""Unit tests for metrics collectors and report formatting."""

import pytest

from repro.metrics.collectors import LatencyRecorder, ThroughputCounter
from repro.metrics.report import Series, format_series_table, format_table


class TestLatencyRecorder:
    def test_record_and_stats(self):
        recorder = LatencyRecorder()
        for ms in (1.0, 2.0, 3.0):
            recorder.record(ms)
        assert recorder.count == 3
        assert recorder.mean_ms == 2.0
        assert recorder.min_ms == 1.0
        assert recorder.max_ms == 3.0

    def test_start_stop_measures(self):
        recorder = LatencyRecorder()
        recorder.start()
        elapsed = recorder.stop()
        assert elapsed >= 0
        assert recorder.count == 1

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            LatencyRecorder().stop()

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for ms in range(100):
            recorder.record(float(ms))
        assert recorder.percentile(0) == 0.0
        assert recorder.percentile(50) == 50.0
        assert recorder.percentile(100) == 99.0
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_empty_percentile(self):
        assert LatencyRecorder().percentile(50) == 0.0

    def test_no_samples_mode(self):
        recorder = LatencyRecorder(keep_samples=False)
        recorder.record(5.0)
        assert recorder.samples == []
        assert recorder.mean_ms == 5.0

    def test_samples_are_a_bounded_ring(self):
        recorder = LatencyRecorder()
        for ms in range(10_000):
            recorder.record(float(ms))
        assert len(recorder.samples) == 4096
        assert sorted(recorder.samples) \
            == [float(ms) for ms in range(10_000 - 4096, 10_000)]
        summary = recorder.summary()
        assert summary["count"] == 10_000  # exact, not ring-bounded
        assert summary["min_ms"] == 0.0 and summary["max_ms"] == 9999.0
        assert summary["mean_ms"] == 4999.5
        assert summary["p50_ms"] == 10_000 - 2048  # over the last 4096

    def test_reset(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        recorder.reset()
        assert recorder.count == 0
        assert recorder.summary()["min_ms"] == 0.0

    def test_summary_shape(self):
        recorder = LatencyRecorder()
        recorder.record(2.0)
        summary = recorder.summary()
        assert set(summary) == {"count", "mean_ms", "min_ms", "max_ms",
                                "p50_ms", "p95_ms"}


class TestThroughputCounter:
    def test_rate(self):
        counter = ThroughputCounter()
        for t in (0, 1_000, 2_000):
            counter.record(t)
        assert counter.per_second == 1.0

    def test_no_events_is_zero(self):
        assert ThroughputCounter().per_second == 0.0

    def test_single_event_is_zero(self):
        counter = ThroughputCounter()
        counter.record(5)
        assert counter.per_second == 0.0

    def test_identical_timestamps_clamp_to_one_ms(self):
        # Two events in the same millisecond: the span clamps to 1 ms,
        # so the rate is a finite lower bound instead of 0.0 (the old
        # behaviour made every single-burst measurement vanish).
        counter = ThroughputCounter()
        counter.record(5)
        counter.record(5)
        assert counter.per_second == 1000.0

    def test_two_events_one_second_apart(self):
        counter = ThroughputCounter()
        counter.record(0)
        counter.record(1_000)
        assert counter.per_second == 1.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("a", 1), ("long-name", 2.5)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "2.500" in lines[3]

    def test_format_table_empty(self):
        text = format_table(("x",), [])
        assert "x" in text

    def test_series(self):
        series = Series("s")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.xs() == [1, 2]
        assert series.ys() == [10.0, 20.0]

    def test_series_table_merges_x(self):
        a = Series("a")
        a.add(1, 1.0)
        a.add(2, 2.0)
        b = Series("b")
        b.add(2, 20.0)
        b.add(3, 30.0)
        text = format_series_table("x", [a, b])
        lines = text.splitlines()
        assert len(lines) == 5  # header + rule + x in {1,2,3}
        assert "a" in lines[0] and "b" in lines[0]
