#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs and write a BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --label pool_fork_one_thread --what "one line on the change" \\
        --extra-seed fanout:7:3 --trace fanout --workdir /tmp/bench

Each commit is exported with ``git archive`` into ``--workdir`` (no build
output, no stale ``perfbench/out``), and every run is
``perfbench/run.py --workload W`` in a fresh process from that export, at
perfbench's own run length and default seed (``--seed N`` is passed only
for ``--extra-seed`` runs).  Each workload ``BENCHMARK.json`` declares
gets ``--pairs`` pairs (10 by default); pairs alternate which side runs first (parent first in even
pairs) so that drift in the host's speed falls on both sides.  Each
end-to-end metric it declares is summarised by its median and inclusive
quartiles over the runs, and judged against its bound: the change's
``change_vs_parent`` is the relative change of the median, signed by the
metric's ``better`` so that positive means worse, and ``within_bound``
says whether it is at most the bound.  The pairs the change won on
``trials_per_s`` are counted.  Each side's fastest ``trials_per_s`` run
is reported beside its median: the host's speed drifts for minutes at a
time, and the fastest run is the one least slowed by it.  The result is written to
``BENCH_<label>.json`` at the repository root.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
ENVIRONMENT_KEYS = ("nproc", "cpu_count", "machine", "python", "numpy", "blas", "blas_threads_env")


def benchmark_names(root: Path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The workload and end-to-end metric names ``root/BENCHMARK.json``
    declares, in its order."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    return (
        tuple(w["name"] for w in benchmark["workloads"]),
        tuple(m["name"] for m in benchmark["end_to_end"]),
    )


def end_to_end_specs(root: Path) -> list[dict]:
    """The end-to-end metrics ``root/BENCHMARK.json`` declares, each with
    its ``better`` and ``bound``."""
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def summarize(runs: list[float]) -> dict:
    """Median and inclusive quartiles of ``runs``, which are kept in order."""
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": runs}


def pairs_won(parent: list[float], change: list[float]) -> int:
    """Pairs in which the change's trials/s beat the parent's."""
    return sum(c > p for p, c in zip(parent, change, strict=True))


def change_vs_parent(parent: float, change: float, better: str) -> float:
    """The relative change from the parent's median to the change's, signed
    so that positive means worse (``better`` is "higher" or "lower")."""
    relative = (change - parent) / parent
    return round(relative if better == "lower" else -relative, 4)


def judge(entry: dict, specs: list[dict]) -> None:
    """Write ``change_vs_parent`` and ``within_bound`` beside the change's
    median of each metric of ``specs`` in a workload ``entry``."""
    for spec in specs:
        change = entry["change"][spec["name"]]
        parent = entry["parent"][spec["name"]]["median"]
        worse = change_vs_parent(parent, change["median"], spec["better"])
        change["change_vs_parent"] = worse
        change["within_bound"] = worse <= spec["bound"]


def pair_order(index: int) -> tuple[str, str]:
    return SIDES if index % 2 == 0 else SIDES[::-1]


def export(repo: Path, sha: str, dest: Path) -> Path:
    """A clean tree of ``sha`` at ``dest``."""
    tar = subprocess.run(["git", "archive", sha], cwd=repo, capture_output=True, check=True)
    dest.mkdir(parents=True, exist_ok=False)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest)
    return dest


def run_once(tree: Path, workload: str, seed: int | None = None, trace: int = 0) -> dict:
    """One perfbench run, at perfbench's default seed unless ``seed`` is
    given; its result line, with the seed the run reported."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = int(re.search(r"^# workload=\S+ seed=(\d+) ", proc.stdout, re.M).group(1))
    return result


def recorded_environment(tree: Path, workload: str, seed: int) -> dict:
    """The machine, Python, numpy and BLAS a run in ``tree`` recorded, and
    whether PYTHONDONTWRITEBYTECODE is set here: every run inherits it, and
    without written bytecode each run's ``setup_s`` includes compiling
    beamsim's source."""
    report = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    environment = json.loads(report.read_text())["environment"]
    recorded = {k: environment.get(k) for k in ENVIRONMENT_KEYS}
    recorded["python_dont_write_bytecode"] = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return recorded


def metric(result: dict, name: str) -> float:
    return round(result["metrics"][name]["value"], 4)


def bench_workload(
    trees: dict, workload: str, seed: int | None, pairs: int, end_to_end: tuple[str, ...]
) -> dict:
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in pair_order(i):
            results[side].append(run_once(trees[side], workload, seed))
            rate = metric(results[side][-1], "trials_per_s")
            print(f"{workload} pair {i} {side}: {rate} trials/s", file=sys.stderr)
    entry = {"workload": workload, "seed": results["parent"][0]["seed"], "pairs": pairs}
    for side in SIDES:
        entry[side] = {name: summarize([metric(r, name) for r in results[side]]) for name in end_to_end}
        entry[side]["trials_per_s"]["fastest"] = max(entry[side]["trials_per_s"]["runs"])
        entry[side]["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in results[side])
    rates = {side: entry[side]["trials_per_s"] for side in SIDES}
    entry["trials_per_s_change_won_pairs"] = pairs_won(rates["parent"]["runs"], rates["change"]["runs"])
    entry["trials_per_s_median_ratio"] = round(rates["change"]["median"] / rates["parent"]["median"], 3)
    return entry


def bench_trace(trees: dict, workload: str) -> dict:
    entry = {
        "command": f"python3 perfbench/run.py --workload {workload} --trace 1",
        "runs": "one per side, parent first",
    }
    for side in SIDES:
        result = run_once(trees[side], workload, trace=1)
        entry[side] = {name: metric(result, name) for name in result["metrics"]}
    return entry


def extra_seed(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit (or any git revision) to compare against")
    ap.add_argument("--change", required=True, help="commit (or any git revision) under test")
    ap.add_argument("--label", required=True)
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--extra-seed", type=extra_seed, action="append", default=[],
                    metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD",
                    help="workloads to run once per side with --trace 1")
    ap.add_argument("--workdir", type=Path, required=True, help="empty scratch directory for the exports")
    ap.add_argument("--pairs", type=int, default=PAIRS, help="alternating pairs per workload")
    args = ap.parse_args(argv)

    shas = {
        side: subprocess.run(["git", "rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
        for side in SIDES
    }
    trees = {side: export(ROOT, shas[side], args.workdir / side) for side in SIDES}

    names, end_to_end = benchmark_names(ROOT)
    workloads = {w: bench_workload(trees, w, None, args.pairs, end_to_end) for w in names}
    for workload, seed, pairs in args.extra_seed:
        workloads[f"{workload}_seed{seed}"] = bench_workload(trees, workload, seed, pairs, end_to_end)
    specs = end_to_end_specs(ROOT)
    for entry in workloads.values():
        judge(entry, specs)

    bench = {
        "label": args.label,
        "what": args.what,
        "command": "python3 perfbench/run.py --workload <w> [--seed <s>]",
        "method": "alternating parent/change pairs (parent first in even pairs), each run in a "
        "fresh process from a clean export of its commit; medians and quartiles (inclusive "
        "method) over runs, which are listed in pair order",
        "commits": shas,
        "environment": recorded_environment(trees["parent"], names[0], workloads[names[0]]["seed"]),
        "workloads": workloads,
    }
    for workload in args.trace:
        bench[f"trace_{workload}"] = bench_trace(trees, workload)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
