"""Outside-in tracing: timing wrappers on the functions a trial looks up.

``Tracer.install`` replaces module attributes of the program with wrappers
that record one span per call (layer, function, start, end, parent span,
trial id).  ``Tracer.uninstall`` puts the originals back.  Spans stay in
memory and are written out once, at the end of the benchmark.

Process-pool workers forked while the tracer is installed keep their own
spans and write them to ``<worker_dir>/worker-<pid>.jsonl`` when they exit;
``spans_by_pid`` merges those files.  Workers started by another method
import the program afresh and are not traced.

A function a later version of the program no longer has or no longer calls
simply records no spans: every metric then reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path

BUILDERS = (
    "digital_svd_beamformer",
    "svd_phase_beamformer",
    "double_rf_beamformer",
    "mixed_beamformer",
    "quantize_rf",
    "select_phase_shifters",
    "mu_zf_digital",
    "mu_zf_hybrid",
)

# (module, attribute, layer): the names run_trial and run_experiment look up.
WRAPPED = (
    ("beamsim.experiments", "run_trial", "experiments.run_trial"),
    ("beamsim.experiments", "draw_channel", "channel.draw_channel"),
    ("beamsim.experiments", "capacity_p2p", "rates.capacity_p2p"),
    ("beamsim.experiments", "achievable_rate", "rates.evaluate"),
    ("beamsim.experiments", "sum_rate_mu", "rates.evaluate"),
    ("beamsim.experiments", "summarize", "experiments.summarize"),
    *(("beamsim.experiments", name, "beamformers.build") for name in BUILDERS),
)
SVD_LAYER = "linalg.thin_svd"

# span tuple fields, and their keys in span files
ID, PARENT, LAYER, FN, START, END, TRIAL, EXTRA = range(8)
SPAN_KEYS = ("id", "parent", "layer", "fn", "start_ns", "end_ns", "trial", "extra")


def svd_flop(shape) -> float:
    """Real flops of a complex thin SVD with both factors, from its shape.

    Golub & Van Loan's counts for (Sigma, U1, V) are 14 m n^2 + 8 n^3
    (Golub-Reinsch) and 6 m n^2 + 20 n^3 (R-SVD), m >= n; complex
    arithmetic costs about four real flops per operation.
    """
    m, n = max(shape), min(shape)
    return 4.0 * min(14 * m * n * n + 8 * n**3, 6 * m * n * n + 20 * n**3)


class Tracer:
    def __init__(self, worker_dir: Path | None = None):
        self.spans: list[tuple] = []
        self.worker_dir = worker_dir
        self._stack: list[tuple[int, str | None]] = []  # (span id, trial id)
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    @contextmanager
    def span(self, layer: str, fn: str | None = None, trial: str | None = None, extra=None):
        sid = self._next_id
        self._next_id += 1
        parent, parent_trial = self._stack[-1] if self._stack else (None, None)
        trial = trial if trial is not None else parent_trial
        self._stack.append((sid, trial))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, layer, fn or layer, start, end, trial, extra))

    def _wrap(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        fn = f"{module.__name__.removeprefix('beamsim.')}.{attr}"
        tracer = self

        if layer == "experiments.run_trial":

            @functools.wraps(original)
            def wrapper(config, trial_index, *args, **kwargs):
                with tracer.span(layer, fn, trial=f"{config.name}#{trial_index}"):
                    return original(config, trial_index, *args, **kwargs)

        elif layer == SVD_LAYER:

            @functools.wraps(original)
            def wrapper(a, *args, **kwargs):
                with tracer.span(layer, fn, extra=list(getattr(a, "shape", ()))):
                    return original(a, *args, **kwargs)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(layer, fn):
                    return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists, and every binding of thin_svd."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer in WRAPPED:
            module = sys.modules.get(mod_name)
            if module is not None and callable(getattr(module, attr, None)):
                self._wrap(module, attr, layer)
        linalg = sys.modules.get("beamsim.linalg")
        svd = getattr(linalg, "thin_svd", None)
        if svd is not None:
            for name, module in sorted(sys.modules.items()):
                if name.startswith("beamsim.") and getattr(module, "thin_svd", None) is svd:
                    self._wrap(module, "thin_svd", SVD_LAYER)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _after_fork(self) -> None:
        # Runs in a forked child: keep only the child's own spans and write
        # them out when the child exits.
        self.spans = []
        self._stack = []
        if self._patched and self.worker_dir is not None:
            mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        pid = os.getpid()
        write_spans(self.worker_dir / f"worker-{pid}.jsonl", {pid: self.spans})

    def spans_by_pid(self) -> dict[int, list[tuple]]:
        """This process's spans plus those of exited workers, keyed by pid.

        Worker span files are read and deleted.
        """
        out = {os.getpid(): list(self.spans)}
        if self.worker_dir is None:
            return out
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    d = json.loads(line)
                    out.setdefault(d["pid"], []).append(tuple(d[k] for k in SPAN_KEYS))
            path.unlink()
        return out


def write_spans(path: Path, spans_by_pid: dict[int, list[tuple]]) -> None:
    """One JSON object per span and line, with the span's process id."""
    with open(path, "w") as handle:
        for pid, spans in spans_by_pid.items():
            for s in spans:
                handle.write(json.dumps({**dict(zip(SPAN_KEYS, s)), "pid": pid}) + "\n")


def self_ns(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in out:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans_by_pid: dict[int, list[tuple]], points: int) -> dict:
    """Per-layer metrics from spans keyed by process id.

    Self times subtract only children recorded in the same process.
    Per-trial figures divide by the number of run_trial spans; per-point
    figures by ``points``.
    """
    dur = defaultdict(int)  # layer -> total ns
    own = defaultdict(int)  # layer -> total self ns
    calls = defaultdict(int)
    svd_flops = 0.0
    for spans in spans_by_pid.values():
        selfs = self_ns(spans)
        for s in spans:
            dur[s[LAYER]] += s[END] - s[START]
            own[s[LAYER]] += selfs[s[ID]]
            calls[s[LAYER]] += 1
            if s[LAYER] == SVD_LAYER and s[EXTRA]:
                svd_flops += svd_flop(s[EXTRA])

    trials = calls["experiments.run_trial"]

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    ms = 1e-6
    svd = SVD_LAYER
    return {
        f"{svd}.calls_per_trial": per(calls[svd], trials),
        f"{svd}.ms_per_call": per(dur[svd], calls[svd], ms),
        f"{svd}.share": per(dur[svd], dur["experiments.run_trial"]),
        f"{svd}.gflop_per_trial_computed": per(svd_flops, trials, 1e-9),
        "channel.draw_channel.ms_per_trial": per(dur["channel.draw_channel"], trials, ms),
        "beamformers.build.self_ms_per_trial": per(own["beamformers.build"], trials, ms),
        "rates.capacity_p2p.self_ms_per_trial": per(own["rates.capacity_p2p"], trials, ms),
        "rates.evaluate.ms_per_trial": per(dur["rates.evaluate"], trials, ms),
        "experiments.run_trial.self_ms_per_trial": per(
            own["experiments.run_trial"], trials, ms
        ),
        "experiments.run_experiment.self_ms_per_point": per(
            own["experiments.run_experiment"], points, ms
        ),
        "experiments.summarize.ms_per_point": per(dur["experiments.summarize"], points, ms),
        "configio.write_csv.ms": per(dur["configio.write_csv"], calls["configio.write_csv"], ms),
    }
