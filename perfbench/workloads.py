"""Benchmark workloads: fixed sets of experiment points, seeded by the caller.

Each workload is a list of single-point experiments plus a worker count.
The program only ever sees the ``ExperimentConfig`` objects built here; the
seed given on the command line becomes every config's ``master_seed``.

This module imports nothing from numpy or beamsim at import time, so that
``setup`` can time the program's import.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 123456789  # beamsim.experiments.DEFAULT_SEED
K = 4
P2P_RHO_DB = 34.0  # the SNR of the figure presets


@dataclass(frozen=True)
class Point:
    """One experiment point: channel, scheme and trial count."""

    channel: str  # "rayleigh" or "geometric"
    n_t: int
    n_r: int
    scheme: str
    trials: int
    m: int = K
    rho_db: float = P2P_RHO_DB
    bits: int | None = None
    beta_percent: float | None = None


def _ray(n, scheme, trials, **kw):
    return Point("rayleigh", n, n, scheme, trials, **kw)


def _geo(n, scheme, trials, **kw):
    return Point("geometric", n, n, scheme, trials, **kw)


def _mu(n_t, scheme, trials, rho_db):
    return Point("rayleigh", n_t, K, scheme, trials, rho_db=rho_db)


@dataclass(frozen=True)
class Workload:
    name: str
    points: tuple[Point, ...]
    parallel: bool = False  # True: workers = nproc, else 1

    def workers(self) -> int:
        return nproc() if self.parallel else 1


WORKLOADS = {
    w.name: w
    for w in (
        # Dense full SVDs take over 90% of trial time.
        Workload(
            "large_rayleigh",
            (
                _ray(256, "svd_phase", 20),
                _ray(256, "selection", 20, beta_percent=25.0),
                _ray(512, "svd_phase", 5),
                _ray(512, "selection", 5, beta_percent=25.0),
            ),
        ),
        # The same SVD layer on rank-5 input.
        Workload(
            "geometric",
            (
                _geo(128, "svd_phase", 20),
                _geo(256, "svd_phase", 10),
                _geo(512, "svd_phase", 5),
                _geo(512, "double_rf", 5, m=2 * K),
            ),
        ),
        # The only workload on the process-pool path, with default BLAS
        # threads.  At n <= 64 per-trial Python does most of the work.
        Workload(
            "fanout",
            (
                _ray(8, "digital", 400),
                _ray(8, "svd_phase", 400),
                _ray(8, "quantized", 400, bits=2),
                _mu(64, "mu_zf_hybrid", 400, 30.0),
                _ray(64, "svd_phase", 60),
                _ray(64, "selection", 60, beta_percent=25.0),
            ),
            parallel=True,
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def point_name(workload: str, p: Point) -> str:
    scheme = p.scheme
    if p.bits is not None:
        scheme += f"_b{p.bits}"
    if p.beta_percent is not None:
        scheme += f"_beta{p.beta_percent:g}"
    return f"{workload}_{scheme}_{p.channel}_nt{p.n_t}_nr{p.n_r}_rho{p.rho_db:g}"


def import_program():
    """Import beamsim from this checkout's ``src``, never from elsewhere."""
    init = SRC / "beamsim" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"program source not found: {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    beamsim = importlib.import_module("beamsim")
    if Path(beamsim.__file__).resolve() != init.resolve():
        raise ImportError(f"beamsim imported from {beamsim.__file__}, not {init}")
    return beamsim


def build_configs(workload: str, seed: int, trials: int | None = None) -> list:
    """The workload's configs with ``master_seed = seed``.

    ``trials`` overrides every point's trial count (used by the smoke tests).
    """
    import beamsim

    out = []
    for p in WORKLOADS[workload].points:
        out.append(
            beamsim.ExperimentConfig(
                name=point_name(workload, p),
                channel=beamsim.ChannelModel(
                    p.channel, p.n_t, p.n_r, l_paths=5 if p.channel == "geometric" else None
                ),
                k=K,
                m=p.m,
                rho_db=p.rho_db,
                scheme=beamsim.Scheme(p.scheme, bits=p.bits, beta_percent=p.beta_percent),
                trials=trials if trials is not None else p.trials,
                master_seed=seed,
            )
        )
    return out


def setup(workload: str, seed: int, trials: int | None = None):
    """Import the program, build the configs and run one warm-up trial per point.

    Returns ``(beamsim, configs, seconds)``.  The warm-up starts BLAS threads
    and any lazy state, so the timed rounds see a warm process.
    """
    t0 = time.perf_counter()
    beamsim = import_program()
    configs = build_configs(workload, seed, trials)
    for cfg in configs:
        beamsim.run_trial(cfg, 0)
    return beamsim, configs, time.perf_counter() - t0
