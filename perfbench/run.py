"""beamsim benchmark driver: Monte-Carlo trials per second on one workload.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 25 --trace 0

A round runs every point of the workload through the public API
(``run_experiment`` -> ``result_row`` -> ``configio.write_csv``) and is
timed from the first ``run_experiment`` call until the CSV text is written.
Rounds repeat for about ``--seconds``.  Every row of every round goes
through the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced half and prints the per-layer metrics (see README.md).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Results, with the run environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import gate
import spans
import workloads
from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS

OUT_DIR = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7  # this process plus six fresh ones; setup_s is their median
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "linalg.thin_svd.calls_per_trial": "calls/trial",
    "linalg.thin_svd.ms_per_call": "ms",
    "linalg.thin_svd.share": "ratio",
    "linalg.thin_svd.gflop_per_trial_computed": "GFLOP",
    "channel.draw_channel.ms_per_trial": "ms",
    "beamformers.build.self_ms_per_trial": "ms",
    "rates.capacity_p2p.self_ms_per_trial": "ms",
    "rates.evaluate.ms_per_trial": "ms",
    "experiments.run_trial.self_ms_per_trial": "ms",
    "experiments.run_experiment.self_ms_per_point": "ms",
    "experiments.run_experiment.parallel_efficiency": "ratio",
    "experiments.summarize.ms_per_point": "ms",
    "configio.write_csv.ms": "ms",
    "experiments.excluded_fraction": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Round:
    rows: list  # one result row per point, None where the point raised
    seconds: float
    trials: int

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds


def _no_span(*args, **kwargs):
    return nullcontext()


def run_round(beamsim, configs, workers: int, tracer=None) -> Round:
    experiments = beamsim.experiments
    span = tracer.span if tracer is not None else _no_span
    rows, trials = [], 0
    t0 = time.perf_counter()
    for cfg in configs:
        try:
            with span("experiments.run_experiment", extra=cfg.name):
                result = experiments.run_experiment(cfg, workers)
            rows.append(experiments.result_row(cfg, result.summary))
            trials += cfg.trials
        except Exception:  # a failing point is counted, never fatal
            traceback.print_exc()
            rows.append(None)
    with span("configio.write_csv"):
        beamsim.configio.write_csv([r for r in rows if r is not None], io.StringIO())
    return Round(rows, time.perf_counter() - t0, trials)


def run_rounds(beamsim, configs, workers: int, seconds: float, tracer=None) -> list[Round]:
    """Whole rounds until the next one would end further from ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(beamsim, configs, workers, tracer))
        mean = statistics.fmean(r.seconds for r in rounds)
        if time.perf_counter() - start + mean / 2 >= seconds:
            return rounds


def median_rate(rounds: list[Round]) -> float:
    return statistics.median(r.trials_per_s for r in rounds)


def check_rounds(rounds, configs, reference, serial_rows=None) -> tuple[int, int, list[str]]:
    """Gate every row of every round; return (failed, attempted, problems)."""
    failed, problems = 0, []
    for r, rnd in enumerate(rounds):
        for i, (row, cfg) in enumerate(zip(rnd.rows, configs)):
            found = gate.check_row(row, cfg, reference)
            if row is not None and row != rounds[0].rows[i]:
                found.append("differs from round 0")
            if serial_rows is not None and row != serial_rows[i]:
                found.append("differs from the serial run of the same point")
            if found:
                failed += 1
                problems += [f"round {r} {cfg.name}: {p}" for p in found]
    return failed, len(rounds) * len(configs), problems


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's.

    Forked workers count pages they share with the driver, so with workers
    this is an upper bound on the concurrent total.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamsim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, workers: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def traced_rounds(beamsim, configs, workers: int, seconds: float):
    """Rounds with the tracer installed; returns (rounds, spans keyed by pid)."""
    worker_dir = OUT_DIR / f"workers-{os.getpid()}"
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(worker_dir)
    tracer.install()
    try:
        rounds = run_rounds(beamsim, configs, workers, seconds, tracer)
    finally:
        tracer.uninstall()
    by_pid = tracer.spans_by_pid()
    shutil.rmtree(worker_dir)
    return rounds, by_pid


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    beamsim, configs, setup_s = workloads.setup(workload, seed)
    workers = WORKLOADS[workload].workers()
    reference = gate.load_reference(workload) if seed == DEFAULT_SEED else None
    report = {"environment": environment(workload, seed, workers)}
    out = {}

    rounds = run_rounds(beamsim, configs, workers, seconds / 2 if trace else seconds)
    traced = []
    if not trace:
        out["trials_per_s"] = median_rate(rounds)
        out["peak_rss_mb"] = peak_rss_mib(workers)
    else:
        traced, by_pid = traced_rounds(beamsim, configs, workers, seconds / 2)
        out.update(spans.layer_metrics(by_pid, points=len(traced) * len(configs)))
        untraced = median_rate(rounds)
        out["trace.overhead"] = median_rate(traced) / untraced if untraced else 0.0
        done = [r for r in rounds[0].rows if r is not None]
        trials = sum(int(r["trials"]) for r in done)
        out["experiments.excluded_fraction"] = (
            sum(int(r["excluded"]) for r in done) / trials if trials else 0.0
        )
        span_file = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
        spans.write_spans(span_file, by_pid)
        report["span_file"] = str(span_file.relative_to(ROOT))

    serial_rows = None
    efficiency = 1.0  # by definition when workers = 1
    if workers > 1:
        serial = run_round(beamsim, configs, 1)
        serial_rows = serial.rows
        parallel_s = statistics.median(r.seconds for r in rounds)
        efficiency = serial.seconds / (workers * parallel_s)
    if trace:
        out["experiments.run_experiment.parallel_efficiency"] = efficiency
    failed, attempted, problems = check_rounds(rounds + traced, configs, reference, serial_rows)

    if not trace:
        samples = [setup_s] + [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
        out["setup_s"] = statistics.median(samples)
        report["setup_samples_s"] = samples

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        problems=problems,
        rounds=[{"seconds": r.seconds, "trials": r.trials} for r in rounds + traced],
        metrics={name: {"value": out[name], "unit": unit} for name, unit in units.items()},
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_file = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "beamsim" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'beamsim'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(workloads.setup(args.workload, args.seed)[2]))
        return 0

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = report["environment"]
    print(
        f"# workload={env['workload']} seed={env['seed']} workers={env['workers']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']['name']} {env['blas']['version']} "
        f"blas_threads_env={env['blas_threads_env']} commit={env['git_commit']}"
    )
    for name, m in report["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    failed_fraction = report["failed"] / report["attempted"]
    print(f"{'failed_fraction':48s} {failed_fraction:14.6g} ratio")
    for problem in report["problems"][:20]:
        print(f"# gate: {problem}")
    print(
        json.dumps(
            {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
