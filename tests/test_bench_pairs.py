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


def test_workload_entry_reports_each_sides_fastest_run(monkeypatch):
    rates = {"parent": iter([10.0, 12.0, 11.0]), "change": iter([20.0, 19.0, 25.0])}

    def run_once(tree, workload, seed=None, trace=0):
        metrics = {"trials_per_s": next(rates[tree]), "setup_s": 0.5}
        return {"seed": 2, "correct": True, "failed": 0,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    trees = {side: side for side in bench_pairs.SIDES}
    entry = bench_pairs.bench_workload(trees, "large_rayleigh", None, 3, ("trials_per_s", "setup_s"))
    assert entry["parent"]["trials_per_s"]["fastest"] == 12.0
    assert entry["change"]["trials_per_s"]["fastest"] == 25.0
    assert entry["parent"]["trials_per_s"]["median"] == 11.0
    assert "fastest" not in entry["parent"]["setup_s"]
    assert entry["trials_per_s_change_won_pairs"] == 3


def test_change_vs_parent_is_signed_so_positive_is_worse():
    assert bench_pairs.change_vs_parent(52.50, 52.78, "lower") == 0.0053
    assert bench_pairs.change_vs_parent(100.0, 70.0, "higher") == 0.3
    assert bench_pairs.change_vs_parent(100.0, 110.0, "higher") == -0.1


def test_each_metric_is_judged_against_its_bound():
    specs = bench_pairs.end_to_end_specs(SCRIPT.parent.parent)
    assert {s["name"]: (s["better"], s["bound"]) for s in specs}["peak_rss_mb"] == ("lower", 0.05)
    entry = {
        "parent": {"peak_rss_mb": {"median": 52.50}, "trials_per_s": {"median": 100.0}},
        "change": {"peak_rss_mb": {"median": 52.78}, "trials_per_s": {"median": 70.0}},
    }
    bounds = [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "trials_per_s", "better": "higher", "bound": 0.25},
    ]
    bench_pairs.judge(entry, bounds)
    assert entry["change"]["peak_rss_mb"] == {
        "median": 52.78, "change_vs_parent": 0.0053, "within_bound": True
    }
    assert entry["change"]["trials_per_s"] == {
        "median": 70.0, "change_vs_parent": 0.3, "within_bound": False
    }
    assert entry["parent"]["peak_rss_mb"] == {"median": 52.50}
