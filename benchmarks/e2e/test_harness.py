"""Self-test of the benchmark harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import math

import pytest

from benchmarks.e2e import layers, oracle, run, stats, workloads


class TestPercentiles:
    def test_failures_count_as_infinity(self):
        samples = [float(i) for i in range(1, 91)]
        assert stats.percentile(samples, 50, failed=10) == 50.0
        assert stats.percentile(samples, 90, failed=10) == 90.0
        assert stats.percentile(samples, 91, failed=10) == stats.INF
        assert stats.percentile([], 50, failed=3) == stats.INF

    def test_nearest_rank_without_failures(self):
        assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert stats.percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_highest_supported_needs_ten_samples_beyond(self):
        assert stats.highest_supported(15) == 50.0
        assert stats.highest_supported(100) == 90.0
        assert stats.highest_supported(1000) == 99.0
        assert stats.highest_supported(10_000) == 99.9
        assert stats.highest_supported(999) == 90.0

    def test_worse_by_respects_direction(self):
        assert stats.worse_by(10.0, 12.0, "lower") == pytest.approx(0.2)
        assert stats.worse_by(10.0, 12.0, "higher") == pytest.approx(-0.2)


class TestSlices:
    def test_failed_tuples_are_infinite_once_per_sample(self):
        piece = run.Slice("open", 0, sends=10, traced=False)
        piece.attempted, piece.failed = 10, 1
        # Two samples per answered tuple, so the failed one counts twice.
        piece.latencies_ms = [float(i) for i in range(1, 19)]
        assert piece.percentile(50) == 10.0
        assert piece.percentile(90) == 18.0
        assert piece.percentile(91) == stats.INF

    def test_capacity_runs_to_the_last_answer(self):
        piece = run.Slice("saturation", 0, sends=4, traced=False)
        piece.attempted, piece.failed = 512, 128
        piece.start, piece.last_ns = {"t_ns": 1_000}, 1_000 + 2_000_000_000
        assert piece.tuples_per_s() == 192.0

    def test_generator_lag_excludes_waiting_for_the_system(self):
        assert run._lag_ms(due_ns=0, sent_ns=3_000_000, free_ns=0) == 3.0
        assert run._lag_ms(due_ns=0, sent_ns=3_000_000,
                           free_ns=2_500_000) == 0.5

    def test_same_seconds_same_inputs(self):
        sends = workloads.slice_sends("device_fleet", 24.0)
        assert sends == {"warmup": 1152, "open": 1056, "saturation": 1610}
        plan = run.Measurement("device_fleet", 24.0, trace=True).slices
        assert [piece.name for piece in plan[:3]] \
            == ["open:0", "saturation:0", "open:1"]
        assert [piece.traced for piece in plan[:3]] == [False, False, True]


class TestSelfTime:
    #       root 0..100
    #       ├── a 10..40
    #       │    └── a1 20..30
    #       └── b 50..90
    SPANS = [
        ["virtual_sensor.trigger", 0, 100, -1, 7],
        ["storage.append", 10, 40, 0, 7],
        ["storage.catalog", 20, 30, 1, 7],
        ["processor.execute", 50, 90, 0, 7],
        ["processor.execute", 200, 260, -1, None],  # the reader's own call
    ]

    def test_child_cover_is_subtracted(self):
        assert layers.self_times(self.SPANS) == [30, 20, 10, 40, 60]

    def test_budget_sums_to_the_trigger_wall_time(self):
        budget = layers.budget(self.SPANS)
        assert budget["trees"] == 1 and budget["total_ns"] == 100
        assert budget["layers"] == {"virtual_sensor": 30, "storage": 30,
                                    "processor": 40}
        assert sum(budget["layers"].values()) == budget["total_ns"]
        assert budget["names"]["storage.append"] == {
            "calls": 1, "self_ns": 20, "total_ns": 30}

    def test_budget_window_selects_by_root_start(self):
        assert layers.budget(self.SPANS, start_ns=1)["trees"] == 0

    def test_tracer_nests_and_inherits_seq(self):
        tracer = layers.Tracer()
        inner = tracer.wrap("storage.append", lambda: None)
        outer = tracer.wrap("virtual_sensor.trigger", lambda seq: inner(),
                            seq_of=lambda seq: seq)
        outer(1)  # disabled: no span
        tracer.enabled = True
        outer(42)
        spans, __ = tracer.collect()
        assert [(s[layers.NAME], s[layers.PARENT], s[layers.SEQ])
                for s in spans] == [("virtual_sensor.trigger", -1, 42),
                                    ("storage.append", 0, 42)]
        assert spans[0][layers.START] <= spans[1][layers.START] \
            <= spans[1][layers.END] <= spans[0][layers.END]


class TestOracle:
    values = workloads.Values(7)

    def _delta_note(self, seq, window=1000):
        low = max(0, seq - window + 1)
        mean = sum(self.values.gateway_tuple(s)["v"]
                   for s in range(low, seq + 1)) / (seq + 1 - low)
        return [0, seq, mean, None]

    def test_gateway_delta(self):
        notes = [self._delta_note(seq) for seq in (500, 1015, 2031)]
        assert oracle.check_gateway_delta(self.values, notes, 1000) \
            == ([], set())
        notes[1][2] += 0.01
        errors, bad = oracle.check_gateway_delta(self.values, notes, 1000)
        assert bad == {1} and "seq=1015" in errors[0]

    def test_gateway_scan(self):
        ends = [15, 31, 47]
        newest = oracle.newest_qualifying(self.values, 47)
        notes = [[0, newest[end], self.values.gateway_tuple(newest[end])["v"],
                  self.values.gateway_tuple(newest[end])["k"]]
                 for end in ends]
        assert oracle.check_gateway_scan(self.values, notes, ends) \
            == ([], set())
        stale = [list(note) for note in notes]
        stale[2][3] += 1  # wrong k
        assert oracle.check_gateway_scan(self.values, stale, ends)[1] == {2}
        unfiltered = next(seq for seq in range(48)
                          if self.values.gateway_tuple(seq)["v"] <= 10)
        wrong = notes + [[0, unfiltered, 1.0, 1]]
        assert 3 in oracle.check_gateway_scan(self.values, wrong, ends)[1]

    def test_device_fleet(self):
        outputs = [[0, 0, 1, 100, 64], [1, 0, 2, 100, 64],
                   [0, 0, 1, 133, 64]]
        assert oracle.check_device_fleet(outputs, [2, 1], 64) == ([], set())
        assert oracle.check_device_fleet(outputs, [2, 2], 64)[0]  # lost one
        outputs[2][3] = 99  # timed goes back
        assert oracle.check_device_fleet(outputs, [2, 1], 64)[1] == {2}
        outputs[2][3], outputs[1][2] = 133, 9  # someone else's camera_id
        assert oracle.check_device_fleet(outputs, [2, 1], 64)[1] == {1}

    def test_fanout_counts(self):
        deliveries = [[client, 0, 1] for client in (0, 1, 0, 1)]
        assert oracle.check_fanout_counts(deliveries, 2, 2) == ([], set())
        assert oracle.check_fanout_counts(deliveries[:-1], 2, 2)[0]

    def test_covered_by_first_result_reaching_the_tuple(self):
        assert oracle.covered_by([15, 15, 47, 63], [15, 31, 47, 63, 79]) \
            == [0, 2, 2, 3, -1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_mini_run_reports_exactly_the_declared_metrics(name):
    spec = run.load_spec()
    result = run.run_once(name, seed=7, seconds=2.0, trace=True, setups=1)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["end_to_end"]) == sorted(
        run.declared_names(spec, trace=False))
    assert sorted(result["metrics"]) == sorted(
        run.declared_names(spec, trace=True))
    for value in result["end_to_end"].values():
        assert math.isfinite(value) and value > 0
    assert result["metrics"]["harness.budget_residual_pct"] <= 10.0
    shares = sum(value for key, value in result["metrics"].items()
                 if key.startswith("budget."))
    assert shares + result["metrics"]["harness.budget_residual_pct"] \
        == pytest.approx(100.0, abs=0.01)
    line = json.loads(run.contract_line(result, run._units(spec)))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_benchmark_json_names_every_workload():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.EXPECTED_TOP) == set(workloads.WORKLOADS)
