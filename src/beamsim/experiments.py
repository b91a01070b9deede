"""Monte-Carlo experiment runner, sweep expansion and figure presets.

A trial draws one channel on its own random stream (master_seed,
trial_index), builds the configured beamformer and measures capacity and
achieved rate.  Trials that cannot be completed (stream count above the
channel rank, selection killing an RF column, a singular inversion, an
SVD that does not converge) are recorded as degenerate and excluded from
the means but kept in the accounting, never silently dropped.  Summaries
depend only on the config, not on worker count or scheduling.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import closed_form
from .beamformers import (
    PhaseResolution,
    SelectionPolicy,
    digital_svd_beamformer,
    double_rf_beamformer,
    mixed_beamformer,
    mu_zf_digital,
    mu_zf_hybrid,
    quantize_rf,
    select_phase_shifters,
    svd_phase_beamformer,
)
from .channel import GEOMETRIC, RAYLEIGH, ChannelModel, draw_channel
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateColumnError,
    RankError,
    SingularMatrixError,
)
from .linalg import SeededRng, blas_thread_control
from .rates import achievable_rate, capacity_p2p, sum_rate_mu

DEFAULT_SEED = 123456789
DEFAULT_TRIALS = 500


@dataclass(frozen=True)
class SchemeSpec:
    """What the runner knows about one beamforming scheme.

    ``build(chan, config, rho)`` makes the design and ``gap(config, rich)``
    predicts its capacity gap on a Rayleigh (rich) or geometric channel, or
    None.  Multiuser designs are measured with sum_rate_mu against the
    digital ZF design (whose ``build`` is None), the rest with
    achievable_rate against capacity_p2p.  Builders are called by module
    global name, so patching one reaches every scheme.  ``param`` names the
    Scheme field the scheme takes, ``check`` raises ValueError outside its
    domain, ``label`` formats the Scheme's fields into the CSV label, and m
    ranges over ``m_per_k`` times k.
    """

    build: Callable | None
    gap: Callable = lambda config, rich: 0.0
    param: str | None = None
    check: Callable | None = None
    label: str = "{kind}"
    m_per_k: tuple[int, int] = (1, 1)
    multiuser: bool = False
    reports_inactive: bool = False


def _quant_gap(config: ExperimentConfig, base: float) -> float | None:
    bound = closed_form.quant_gap_bound(config.k, config.scheme.bits)
    return None if math.isinf(bound) else base + bound


# kind -> spec: the one place that tells the schemes apart.
SCHEMES = {
    "digital": SchemeSpec(lambda chan, c, rho: digital_svd_beamformer(chan, c.k, rho)),
    "svd_phase": SchemeSpec(
        lambda chan, c, rho: svd_phase_beamformer(chan, c.k, rho),
        gap=lambda c, rich: closed_form.svd_phase_gap(c.k) if rich else 0.0,
    ),
    "double_rf": SchemeSpec(
        lambda chan, c, rho: double_rf_beamformer(chan, c.k, rho), m_per_k=(2, 2)
    ),
    "mixed": SchemeSpec(
        lambda chan, c, rho: mixed_beamformer(chan, c.k, c.m, rho),
        gap=lambda c, rich: closed_form.mixed_gap(c.k, c.m) if rich else 0.0,
        m_per_k=(1, 2),
    ),
    "quantized": SchemeSpec(
        lambda chan, c, rho: quantize_rf(
            chan, svd_phase_beamformer(chan, c.k, rho), PhaseResolution(c.scheme.bits), rho
        ),
        gap=lambda c, rich: _quant_gap(c, closed_form.svd_phase_gap(c.k) if rich else 0.0),
        param="bits",
        check=PhaseResolution,
        label="quantized(b={bits})",
    ),
    "selection": SchemeSpec(
        lambda chan, c, rho: select_phase_shifters(
            chan, c.k, rho, SelectionPolicy(c.scheme.beta_percent)
        ),
        gap=lambda c, rich: closed_form.selection_gap(c.k, c.scheme.beta_percent) if rich else None,
        param="beta_percent",
        check=SelectionPolicy,
        label="selection(beta={beta_percent:g})",
        reports_inactive=True,
    ),
    "mu_zf_hybrid": SchemeSpec(
        lambda chan, c, rho: mu_zf_hybrid(chan, c.k, rho),
        gap=lambda c, rich: closed_form.mu_zf_gap(c.k),
        multiuser=True,
    ),
    "mu_zf_digital": SchemeSpec(None, multiuser=True),
}


@dataclass(frozen=True)
class Scheme:
    """Beamforming scheme selector; bits/beta_percent qualify quantized/selection."""

    kind: str
    bits: int | None = None
    beta_percent: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        spec = self.spec
        for name in ("bits", "beta_percent"):
            value = getattr(self, name)
            if name == spec.param:
                if value is None:
                    raise ValueError(f"the {self.kind} scheme needs {name}")
                spec.check(value)
            elif value is not None:
                raise ValueError(f"{name} does not apply to the {self.kind} scheme")

    @property
    def spec(self) -> SchemeSpec:
        return SCHEMES[self.kind]

    def label(self) -> str:
        return self.spec.label.format(**vars(self))


@dataclass(frozen=True)
class SweepAxis:
    param: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment description; immutable and safe to share with workers.

    ``sweep`` marks an axis still to expand; ``sweep_param``/``sweep_value``
    annotate an already-expanded point for reporting.
    """

    name: str
    channel: ChannelModel
    k: int
    m: int
    rho_db: float
    scheme: Scheme
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_SEED
    sweep: SweepAxis | None = None
    sweep_param: str | None = None
    sweep_value: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ConfigError("experiment name must be nonempty")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not math.isfinite(self.rho_db):
            raise ConfigError("rho_db must be finite")
        try:
            rho = 10.0 ** (self.rho_db / 10.0)
        except OverflowError:
            rho = math.inf
        if not 0.0 < rho < math.inf:
            raise ConfigError(
                f"rho_db = {self.rho_db:g} is out of range: its linear SNR"
                " 10 ** (rho_db / 10) must be positive and finite"
            )
        lo, hi = (f * self.k for f in self.scheme.spec.m_per_k)
        if not lo <= self.m <= hi:
            raise ConfigError(
                f"scheme {self.scheme.kind!r} with k={self.k} needs m in [{lo}, {hi}], got {self.m}"
            )
        if self.scheme.spec.multiuser:
            if self.channel.n_r != self.k:
                raise ConfigError(
                    "multiuser schemes need n_r = k single-antenna users "
                    f"(n_r={self.channel.n_r}, k={self.k})"
                )
            if self.k > self.channel.n_t:
                raise ConfigError("multiuser schemes need k <= n_t")
        elif self.k > min(self.channel.n_t, self.channel.n_r):
            raise ConfigError("k must not exceed min(n_t, n_r)")
        if self.sweep is not None:
            if self.sweep.param not in SWEEPS:
                raise ConfigError(
                    f"unknown sweep parameter {self.sweep.param!r}; choose from {tuple(SWEEPS)}"
                )
            if len(self.sweep.values) == 0:
                raise ConfigError("sweep values must be nonempty")
            if not all(math.isfinite(v) for v in self.sweep.values):
                raise ConfigError("sweep values must be finite")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    capacity_bits: float
    rate_bits: float
    gap_bits: float
    inactive_fraction: float
    degenerate: bool = False


@dataclass(frozen=True)
class SummaryStats:
    """Per-config aggregates; std errors are std(ddof=1)/sqrt(count)."""

    trial_count: int
    excluded_count: int
    mean_capacity: float
    se_capacity: float
    mean_rate: float
    se_rate: float
    mean_gap: float
    se_gap: float
    mean_inactive: float
    se_inactive: float
    analytic_rate: float | None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    summary: SummaryStats
    records: tuple[TrialRecord, ...]


def _inactive_fraction(bf) -> float:
    on = int(np.count_nonzero(bf.f_rf)) + int(np.count_nonzero(bf.w_rf))
    total = bf.f_rf.size + bf.w_rf.size
    return 1.0 - on / total


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one Monte-Carlo trial on its own random stream."""
    spec = config.scheme.spec
    rng = SeededRng(config.master_seed, trial_index)
    chan = draw_channel(config.channel, rng)
    rho = 10.0 ** (config.rho_db / 10.0)
    try:
        if spec.multiuser:
            baseline = mu_zf_digital(chan, config.k, rho)
            capacity = sum_rate_mu(chan, baseline, rho).rate_bits
            bf = baseline if spec.build is None else spec.build(chan, config, rho)
            rate = sum_rate_mu(chan, bf, rho).rate_bits
        else:
            capacity = capacity_p2p(chan, config.k, rho).rate_bits
            bf = spec.build(chan, config, rho)
            rate = achievable_rate(chan, bf, rho).rate_bits
        inactive = _inactive_fraction(bf) if spec.reports_inactive else math.nan
    except (RankError, DegenerateColumnError, SingularMatrixError, ConvergenceError):
        return TrialRecord(trial_index, math.nan, math.nan, math.nan, math.nan, True)
    return TrialRecord(trial_index, capacity, rate, capacity - rate, inactive, False)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return math.nan, math.nan
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, math.nan
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def analytic_gap(config: ExperimentConfig) -> float | None:
    """Closed-form capacity-to-rate gap predicted for this config, if any."""
    return config.scheme.spec.gap(config, config.channel.kind == RAYLEIGH)


def summarize(config: ExperimentConfig, records: list[TrialRecord]) -> SummaryStats:
    included = [r for r in records if not r.degenerate]
    cap = np.array([r.capacity_bits for r in included])
    rate = np.array([r.rate_bits for r in included])
    gap = np.array([r.gap_bits for r in included])
    mean_cap, se_cap = _mean_se(cap)
    mean_rate, se_rate = _mean_se(rate)
    mean_gap, se_gap = _mean_se(gap)
    if config.scheme.spec.reports_inactive and included:
        mean_inact, se_inact = _mean_se(np.array([r.inactive_fraction for r in included]))
    else:
        mean_inact, se_inact = math.nan, math.nan
    gap_pred = analytic_gap(config)
    analytic = None
    if gap_pred is not None and math.isfinite(mean_cap):
        analytic = closed_form.predicted_rate(mean_cap, gap_pred)
    return SummaryStats(
        trial_count=len(included),
        excluded_count=len(records) - len(included),
        mean_capacity=mean_cap,
        se_capacity=se_cap,
        mean_rate=mean_rate,
        se_rate=se_rate,
        mean_gap=mean_gap,
        se_gap=se_gap,
        mean_inactive=mean_inact,
        se_inactive=se_inact,
        analytic_rate=analytic,
    )


@contextmanager
def _sigint_held():
    """Hold SIGINT back for the duration, then deliver it.

    A KeyboardInterrupt raised while a pool forks its workers, starts its
    threads or shuts down can be lost in an at-fork hook or leave the pool
    half built; held, the signal is delivered on exit, with the pool whole.
    Processes forked meanwhile inherit the holding handler until their
    initializer ignores SIGINT.  Off the main thread, which never runs
    Python signal handlers, nothing is held.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held = []
    previous = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
    if held:
        signal.raise_signal(signal.SIGINT)


@contextmanager
def _one_blas_thread():
    """Run the body with this process's BLAS on one thread, then restore the
    previous count on every exit, an interrupt included.

    Pool workers forked meanwhile inherit the single thread.  Setting the
    count inside a worker instead would start a fresh OpenBLAS helper thread
    there (OpenBLAS stops its threads at fork), which spins before it sleeps
    and competes with the workers for cores.  Without a known thread
    control, nothing changes.
    """
    control = blas_thread_control()
    if control is None:
        yield
        return
    set_threads, get_threads = control
    previous = get_threads()
    try:
        set_threads(1)
        yield
    finally:
        with _sigint_held():
            set_threads(previous)


def _init_worker() -> None:
    """Pool-worker initializer: leave SIGINT to the parent, which cancels the
    pool and exits.  The worker's single BLAS thread is inherited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all trials of a single-point config; deterministic for fixed config.

    Trials fan out over ``workers`` processes, but never more than
    ``config.trials``, when workers > 1; aggregation is ordered by
    trial_index either way.  The parent sets its BLAS to one thread before
    it forks the workers (by fork, whatever the platform's default start
    method) and restores its count when the pool is done, so
    each worker inherits one thread and ``workers`` processes keep to
    ``workers`` cores; a serial run keeps the library's default.  Workers
    ignore SIGINT: on an interrupt the parent cancels the chunks not yet
    started, waits for the running ones and re-raises ``KeyboardInterrupt``.
    A trial's bits depend on its (master_seed, trial_index) and on the BLAS
    thread count, so at large n a pool and a serial run can differ in the
    last bit (see README).
    """
    if config.sweep is not None:
        raise ConfigError("config still carries a sweep axis; expand_sweep() it first")
    indices = range(config.trials)
    workers = min(workers, config.trials)  # a fork start launches every worker at once
    if workers <= 1:
        records = [run_trial(config, i) for i in indices]
    else:
        chunk = max(1, config.trials // (4 * workers))
        # fork, not the platform default: a spawn or forkserver start (the
        # Linux default from Python 3.14) would not inherit the single thread
        fork = multiprocessing.get_context("fork")
        with (
            _one_blas_thread(),
            ProcessPoolExecutor(workers, mp_context=fork, initializer=_init_worker) as pool,
        ):
            try:
                with _sigint_held():  # the first submit forks the workers
                    results = pool.map(partial(run_trial, config), indices, chunksize=chunk)
                records = list(results)
            except KeyboardInterrupt:
                with _sigint_held():
                    pool.shutdown(cancel_futures=True)
                raise
    records.sort(key=lambda r: r.trial_index)
    return ExperimentResult(config, summarize(config, records), tuple(records))


def _count(param: str, value: float) -> int:
    n = int(round(value))
    if abs(value - n) > 1e-9 or n < 1:
        raise ConfigError(f"sweep value {value!r} for {param!r} must be a positive integer")
    return n


def _sweep_k(config: ExperimentConfig, value: float) -> dict:
    k = _count("k", value)
    lo, hi = config.scheme.spec.m_per_k
    if lo != hi:
        raise ConfigError(f"sweeping k is ambiguous for {config.scheme.kind}; sweep m instead")
    return {"k": k, "m": lo * k}


# sweep parameter -> the ExperimentConfig fields one value of it sets
SWEEPS: dict[str, Callable[[ExperimentConfig, float], dict]] = {
    "n": lambda c, v: {"channel": replace(c.channel, n_t=_count("n", v), n_r=_count("n", v))},
    "n_t": lambda c, v: {"channel": replace(c.channel, n_t=_count("n_t", v))},
    "n_r": lambda c, v: {"channel": replace(c.channel, n_r=_count("n_r", v))},
    "rho_db": lambda c, v: {"rho_db": float(v)},
    "k": _sweep_k,
    "m": lambda c, v: {"m": _count("m", v)},
    "bits": lambda c, v: {"scheme": replace(c.scheme, bits=_count("bits", v))},
    "beta_percent": lambda c, v: {"scheme": replace(c.scheme, beta_percent=float(v))},
    "l_paths": lambda c, v: {"channel": replace(c.channel, l_paths=_count("l_paths", v))},
    "trials": lambda c, v: {"trials": _count("trials", v)},
}


def _sweep_point(config: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    """The point ``value`` of ``param`` makes of ``config``, annotated with both."""
    fields = SWEEPS[param](config, value)
    return replace(config, **fields, sweep=None, sweep_param=param, sweep_value=float(value))


def expand_sweep(config: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand a config's sweep axis into named single-point configs."""
    if config.sweep is None:
        return [config]
    out = []
    for value in config.sweep.values:
        try:
            point = _sweep_point(config, config.sweep.param, value)
        except ValueError as exc:
            raise ConfigError(f"cannot sweep {config.sweep.param} = {value:g}: {exc}") from exc
        out.append(replace(point, name=f"{config.name}_{config.sweep.param}{value:g}"))
    return out


def _rayleigh(n_t: int, n_r: int | None = None) -> ChannelModel:
    return ChannelModel(RAYLEIGH, n_t, n_r if n_r is not None else n_t)


def _geometric(n: int, l_paths: int = 5) -> ChannelModel:
    return ChannelModel(GEOMETRIC, n, n, l_paths=l_paths)


_N_SWEEP = (8, 16, 32, 64, 128, 256, 512)
_PHASE = Scheme("svd_phase")


def _n_points(fig_id: str, channel: Callable, schemes: tuple, sizes=_N_SWEEP) -> tuple:
    """Array-size points: at each n, one point per scheme."""
    return tuple(
        (f"{fig_id}_{s.kind}_n{n}", channel(n), s, "n", n) for n in sizes for s in schemes
    )


# figure id -> its points: (name, channel, scheme, sweep param, sweep value).
# Each point is the sweep entry applied to a k = m = 4, rho_db = 34 config.
FIGURES = {
    "fig2": _n_points("fig2", _rayleigh, (_PHASE,), (16, 64)),
    "fig3": _n_points("fig3", _rayleigh, (_PHASE,)),
    "fig4": _n_points("fig4", _geometric, (_PHASE,)),
    "fig7": (
        ("fig7_svd_phase_n64", _rayleigh(64), _PHASE, None, None),
        *(
            (f"fig7_quantized_b{b}", _rayleigh(64), Scheme("quantized", bits=b), "bits", b)
            for b in (1, 2, 3, 4)
        ),
    ),
    "fig8": tuple(
        (f"fig8_{kind}_rho{rho}", _rayleigh(64, 4), Scheme(kind), "rho_db", rho)
        for kind in ("mu_zf_digital", "mu_zf_hybrid")
        for rho in range(0, 41, 5)
    ),
    "fig9": tuple(
        (
            f"fig9_selection_n{n}_beta{beta:g}",
            _rayleigh(n),
            Scheme("selection", beta_percent=beta),
            "beta_percent",
            beta,
        )
        for n in (16, 64)
        for beta in (0.0, 10.0, 25.0, 50.0, 75.0)
    ),
    "fig10": _n_points("fig10", _rayleigh, (_PHASE, Scheme("selection", beta_percent=25.0))),
}
FIGURE_IDS = tuple(FIGURES)


def figure_preset(
    fig_id: str, trials: int = DEFAULT_TRIALS, master_seed: int = DEFAULT_SEED
) -> list[ExperimentConfig]:
    """Ready-to-run configs for one of the built-in result figures.

    fig2: singular-vector amplitude sampling runs at n = 16 and 64.
    fig3/fig4: rate vs array size, Rayleigh / geometric (5 paths).
    fig7: digital-phase-shifter resolution sweep plus the analog reference.
    fig8: multiuser ZF, digital vs hybrid, over SNR at n_t = 64.
    fig9: selection fraction sweep at n = 16 and 64.
    fig10: selection at beta = 25 vs the all-on design over array size.
    """
    if fig_id not in FIGURES:
        raise ConfigError(f"unknown figure id {fig_id!r}; choose from {FIGURE_IDS}")
    common = dict(k=4, m=4, rho_db=34.0, trials=trials, master_seed=master_seed)
    out = []
    for name, channel, scheme, param, value in FIGURES[fig_id]:
        point = ExperimentConfig(name=name, channel=channel, scheme=scheme, **common)
        out.append(point if param is None else _sweep_point(point, param, value))
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".12g")
    return str(value)


# CSV column -> its text for one (config, summary) pair: the results contract
_COLUMN_TEXT: dict[str, Callable[[ExperimentConfig, SummaryStats], str]] = {
    "experiment": lambda c, s: c.name,
    "sweep_param": lambda c, s: c.sweep_param or "",
    "sweep_value": lambda c, s: _fmt(c.sweep_value),
    "scheme": lambda c, s: c.scheme.label(),
    "n_t": lambda c, s: str(c.channel.n_t),
    "n_r": lambda c, s: str(c.channel.n_r),
    "k": lambda c, s: str(c.k),
    "m": lambda c, s: str(c.m),
    "rho_db": lambda c, s: _fmt(c.rho_db),
    "trials": lambda c, s: str(c.trials),
    "mean_rate": lambda c, s: _fmt(s.mean_rate),
    "std_err": lambda c, s: _fmt(s.se_rate),
    "analytic_rate": lambda c, s: _fmt(s.analytic_rate),
    "mean_gap": lambda c, s: _fmt(s.mean_gap),
    "inactive_fraction": lambda c, s: _fmt(s.mean_inactive),
    "excluded": lambda c, s: str(s.excluded_count),
}
CSV_COLUMNS = tuple(_COLUMN_TEXT)


def result_row(config: ExperimentConfig, summary: SummaryStats) -> dict:
    """Flatten one (config, summary) pair into the CSV column contract."""
    return {column: text(config, summary) for column, text in _COLUMN_TEXT.items()}
