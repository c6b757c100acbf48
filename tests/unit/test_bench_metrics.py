"""The micro-benchmark session merges its cells into BENCH_micro.json."""

import json

from benchmarks.conftest import merge_metrics


def test_a_filtered_run_keeps_the_cells_it_did_not_measure(tmp_path):
    path = tmp_path / "BENCH_micro.json"
    path.write_text(json.dumps({"kept": {"speedup": 9.0},
                                "remeasured": {"speedup": 5.0}}))
    merge_metrics(str(path), {"remeasured": {"speedup": 6.0}})
    assert json.loads(path.read_text()) == {
        "kept": {"speedup": 9.0}, "remeasured": {"speedup": 6.0}}


def test_a_run_without_a_recorded_file_writes_its_own_cells(tmp_path):
    path = tmp_path / "BENCH_micro.json"
    merge_metrics(str(path), {"cell": 1})
    assert json.loads(path.read_text()) == {"cell": 1}
