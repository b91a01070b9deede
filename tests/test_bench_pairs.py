"""scripts/bench_pairs.py: the summary step of a BENCH file, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_workloads_and_metrics_are_read_from_benchmark_json(tmp_path):
    root = SCRIPT.parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert bench_pairs.benchmark_names(root) == (
        tuple(w["name"] for w in declared["workloads"]),
        tuple(m["name"] for m in declared["end_to_end"]),
    )
    # a workload added to BENCHMARK.json is benchmarked without another edit
    declared["workloads"].append({"name": "shared_draws", "why": "points that share draws"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    workloads, _ = bench_pairs.benchmark_names(tmp_path)
    assert workloads[-1] == "shared_draws" and len(workloads) == len(declared["workloads"])


def test_median_and_inclusive_quartiles_of_odd_runs():
    runs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bench_pairs.summarize(runs) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 4.0, 2.0, 3.0]
    }


def test_inclusive_quartiles_interpolate_between_runs():
    # inclusive method: q1 at position 0.75, q3 at 2.25 of the sorted runs
    summary = bench_pairs.summarize([10.0, 40.0, 20.0, 30.0])
    assert (summary["q1"], summary["median"], summary["q3"]) == (17.5, 25.0, 32.5)


def test_ten_runs_round_to_four_decimals():
    runs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0 / 3.0]
    summary = bench_pairs.summarize(runs)
    assert (summary["q1"], summary["median"], summary["q3"]) == (3.0833, 4.5, 6.75)


def test_one_run_is_its_own_median_and_quartiles():
    assert bench_pairs.summarize([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5, "runs": [7.5]}


def test_pairs_won_counts_strict_wins_in_pair_order():
    parent = [100.0, 100.0, 100.0, 90.0]
    change = [120.0, 100.0, 99.0, 95.0]
    assert bench_pairs.pairs_won(parent, change) == 2


def test_pairs_won_needs_as_many_runs_on_each_side():
    with pytest.raises(ValueError):
        bench_pairs.pairs_won([1.0, 2.0], [3.0])


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(i) for i in range(3)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
    ]


@pytest.mark.parametrize("value, recorded", [("1", True), ("", False), (None, False)])
def test_environment_records_whether_bytecode_is_written(tmp_path, monkeypatch, value, recorded):
    report = tmp_path / "perfbench" / "out" / "fanout-seed2-trace0.json"
    report.parent.mkdir(parents=True)
    report.write_text(json.dumps({"environment": {"nproc": 2, "numpy": "2.4.6"}}))
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    environment = bench_pairs.recorded_environment(tmp_path, "fanout", 2)
    assert environment["python_dont_write_bytecode"] is recorded
    assert environment["nproc"] == 2 and environment["blas"] is None
