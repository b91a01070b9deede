"""Tests of the benchmark itself: workloads, gate, tracer and CLI contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
TINY = 2  # trials per point in smoke runs
# Self times of a trial's spans add up to its run_trial span by construction;
# allow 1 us of rounding per trial.
SELF_SUM_TOL_NS = 1000


@pytest.fixture(scope="module")
def beamsim():
    return workloads.import_program()


def _wrapped_attrs():
    out = {}
    for name, module in sys.modules.items():
        if name.startswith("beamsim"):
            for attr in ("thin_svd", *(a for _, a, _ in spans.WRAPPED)):
                if hasattr(module, attr):
                    out[name, attr] = getattr(module, attr)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(name):
    beamsim, configs, _ = workloads.setup(name, seed=3, trials=TINY)
    workers = workloads.WORKLOADS[name].workers()
    rnd = run.run_round(beamsim, configs, workers)
    serial = run.run_round(beamsim, configs, 1).rows if workers > 1 else None
    assert rnd.trials == TINY * len(configs)
    failed, attempted, problems = run.check_rounds([rnd], configs, None, serial)
    assert (failed, attempted, problems) == (0, len(configs), [])


def test_default_seed_is_the_programs(beamsim):
    assert workloads.DEFAULT_SEED == beamsim.experiments.DEFAULT_SEED


def test_reference_rows_pass_at_default_seed(beamsim):
    configs = workloads.build_configs("fanout", workloads.DEFAULT_SEED)
    rnd = run.run_round(beamsim, configs, 1)
    reference = gate.load_reference("fanout")
    assert run.check_rounds([rnd], configs, reference) == (0, len(configs), [])


def test_gate_flags_a_perturbed_row(beamsim):
    reference = gate.load_reference("fanout")
    cfg = workloads.build_configs("fanout", workloads.DEFAULT_SEED)[1]
    row = dict(reference[cfg.name])
    assert gate.check_row(row, cfg, reference) == []

    drift = dict(row, mean_rate=repr(float(row["mean_rate"]) * (1 + 1e-13)))
    assert gate.check_row(drift, cfg, reference) == []

    wrong_rate = dict(row, mean_rate=repr(float(row["mean_rate"]) * (1 + 1e-6)))
    assert any("mean_rate" in p for p in gate.check_row(wrong_rate, cfg, reference))

    wrong_count = dict(row, excluded="1")
    assert any("excluded" in p for p in gate.check_row(wrong_count, cfg, reference))

    assert gate.check_row(None, cfg, reference) == ["the point raised"]


def test_invariants_flag_a_gap_on_an_exact_scheme(beamsim):
    cfg = workloads.build_configs("fanout", 5)[0]
    assert cfg.scheme.kind == "digital"
    row = beamsim.experiments.result_row(cfg, beamsim.run_experiment(cfg).summary)
    assert gate.invariants(row, cfg) == []
    bad = dict(row, mean_gap="0.01")
    assert any("should be 0" in p for p in gate.invariants(bad, cfg))


def test_tracer_is_removed_and_leaves_results_unchanged(beamsim):
    configs = workloads.build_configs("fanout", 11, trials=3)
    before = _wrapped_attrs()
    plain = run.run_round(beamsim, configs, 1).rows
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert beamsim.experiments.run_trial is not before["beamsim.experiments", "run_trial"]
        traced = run.run_round(beamsim, configs, 1, tracer).rows
    finally:
        tracer.uninstall()
    after = _wrapped_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    layers = {s[spans.LAYER] for s in tracer.spans}
    assert {"experiments.run_trial", "linalg.thin_svd", "beamformers.build"} <= layers


def test_trial_self_times_sum_to_run_trial_span(beamsim):
    configs = workloads.build_configs("fanout", 12, trials=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_round(beamsim, configs, 1, tracer)
    finally:
        tracer.uninstall()
    selfs = spans.self_ns(tracer.spans)
    totals, roots = {}, {}
    for s in tracer.spans:
        if s[spans.TRIAL] is None:
            continue
        totals[s[spans.TRIAL]] = totals.get(s[spans.TRIAL], 0) + selfs[s[spans.ID]]
        if s[spans.LAYER] == "experiments.run_trial":
            roots[s[spans.TRIAL]] = s[spans.END] - s[spans.START]
    assert len(roots) == 3 * len(configs)
    for trial, root in roots.items():
        assert abs(totals[trial] - root) <= SELF_SUM_TOL_NS, trial


def test_p2p_trials_call_thin_svd_twice(beamsim):
    configs = workloads.build_configs("geometric", 4, trials=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_round(beamsim, configs, 1, tracer)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics({0: tracer.spans}, points=len(configs))
    assert metrics["linalg.thin_svd.calls_per_trial"] == 2.0
    assert metrics["linalg.thin_svd.gflop_per_trial_computed"] > 0.0


def test_uncalled_or_missing_layers_read_zero(beamsim, monkeypatch):
    monkeypatch.delattr(beamsim.experiments, "capacity_p2p")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert not hasattr(beamsim.experiments, "capacity_p2p")
    metrics = spans.layer_metrics({0: []}, points=0)
    assert set(metrics.values()) == {0.0}


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        span_file = BENCH / "out" / "fanout-seed2.spans.jsonl"
        records = [json.loads(line) for line in span_file.read_text().splitlines()]
        pids = {
            layer: {r["pid"] for r in records if r["layer"] == layer}
            for layer in ("experiments.run_experiment", "experiments.run_trial")
        }
        # trials ran in the pool workers and their spans were collected
        assert pids["experiments.run_trial"]
        assert not pids["experiments.run_trial"] & pids["experiments.run_experiment"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
