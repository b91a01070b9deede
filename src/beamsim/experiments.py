"""Monte-Carlo experiment runner, sweep expansion and figure presets.

A trial draws one channel on its own random stream (master_seed,
trial_index), builds the configured beamformer and measures capacity and
achieved rate.  Trials that cannot be completed (stream count above the
channel rank, selection killing an RF column, a singular inversion,
stream gains waterfilling cannot take, an SVD or eigensolver that does
not converge, a capacity or rate that is not finite) are recorded as
degenerate and excluded from the means but kept in the accounting,
never silently dropped.  Summaries depend only on the config, not on
worker count or scheduling.

Trials run in batches (``run_trials``), and a single trial is a batch
of one.  A batch's draws, dense (Rayleigh) or as path factors
(geometric), are stacked, then factored, designed and rated by stacked
numpy calls; each stage drops the draws it refuses by a mask.  A draw's
record is bitwise the same in any batch.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import closed_form
from .beamformers import (
    digital_designs,
    mixed_designs,
    mu_zf_digital_designs,
    mu_zf_hybrid_designs,
    phase_step,
    quantized_designs,
    selection_designs,
)
from .channel import GEOMETRIC, RAYLEIGH, ChannelModel, channel_svds, draw_channels
from .errors import ConfigError
from .linalg import blas_thread_control, kept_rows

# capacity_p2p is not called here; perfbench's tracer looks the name up
from .rates import capacity_p2p, capacity_streams, mu_streams, p2p_rates  # noqa: F401

DEFAULT_SEED = 123456789
DEFAULT_TRIALS = 500
# The SNR range a config may ask for, in dB; NaN lies outside it.  Every
# scheme's rates stay finite, with no floating-point warning, across it;
# near +-3000 dB the rate arithmetic overflows.
RHO_DB_RANGE = (-300.0, 300.0)
# A batch of trials holds at most this many bytes of stacked channel
# draws (and always one trial).  Dense matrices: 128 trials at n = 8, 2 at
# n = 64 and one from n = 128, where a trial runs alone.  Five-path
# factors: 6 trials at n = 128, 3 at n = 256, one at n = 512.  At n = 8 a
# larger cap gains no speed and holds more working memory in each
# worker.
BATCH_BYTES = 128 * 1024


@dataclass(frozen=True)
class SchemeSpec:
    """What the runner knows about one beamforming scheme.

    ``design(chan, svd, config)`` designs a stack of draws from their
    stacked factors ``svd, _ = channel_svds(chan, config.k)``, and returns
    the designs of the draws it keeps and that mask; a design is only its
    matrices, and its rater allots the power.  ``gap(config, rich)``
    predicts the scheme's capacity gap on a Rayleigh (rich) or geometric
    channel, or None.  Multiuser designs are measured with ``mu_streams``
    against the digital ZF design (whose ``design`` is None and which
    factors nothing), the rest with ``p2p_rates`` against
    ``capacity_streams`` over the same ``svd.sigma``.  Every ``design``
    calls its builders by module global name at call time, so patching a
    name here reaches every scheme that uses it.  ``param`` names the
    Scheme field the scheme takes, ``check`` raises ValueError outside its
    domain, ``label`` formats the Scheme's fields into the CSV label, and m
    ranges over ``m_per_k`` times k.
    """

    design: Callable | None
    gap: Callable = lambda config, rich: 0.0
    param: str | None = None
    check: Callable | None = None
    label: str = "{kind}"
    m_per_k: tuple[int, int] = (1, 1)
    multiuser: bool = False
    reports_inactive: bool = False


def _mixed(chan, svd, c: ExperimentConfig):
    """The svd_phase (m = k), double_rf (m = 2k) and mixed designs."""
    return mixed_designs(svd, c.m)


def _quant_gap(config: ExperimentConfig, base: float) -> float | None:
    bound = closed_form.quant_gap_bound(config.k, config.scheme.bits)
    return None if math.isinf(bound) else base + bound


# kind -> spec: the one place that tells the schemes apart.
SCHEMES = {
    "digital": SchemeSpec(lambda chan, svd, c: digital_designs(svd)),
    "svd_phase": SchemeSpec(
        _mixed,
        gap=lambda c, rich: closed_form.svd_phase_gap(c.k) if rich else 0.0,
    ),
    "double_rf": SchemeSpec(_mixed, m_per_k=(2, 2)),
    "mixed": SchemeSpec(
        _mixed,
        gap=lambda c, rich: closed_form.mixed_gap(c.k, c.m) if rich else 0.0,
        m_per_k=(1, 2),
    ),
    "quantized": SchemeSpec(
        lambda chan, svd, c: quantized_designs(svd, c.scheme.bits),
        gap=lambda c, rich: _quant_gap(c, closed_form.svd_phase_gap(c.k) if rich else 0.0),
        param="bits",
        check=phase_step,
        label="quantized(b={bits})",
    ),
    "selection": SchemeSpec(
        lambda chan, svd, c: selection_designs(svd, c.scheme.beta_percent),
        gap=lambda c, rich: closed_form.selection_gap(c.k, c.scheme.beta_percent) if rich else None,
        param="beta_percent",
        check=closed_form.alpha_from_beta,
        label="selection(beta={beta_percent:g})",
        reports_inactive=True,
    ),
    "mu_zf_hybrid": SchemeSpec(
        lambda chan, svd, c: mu_zf_hybrid_designs(chan, svd),
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
        rho_lo, rho_hi = RHO_DB_RANGE
        if not rho_lo <= self.rho_db <= rho_hi:
            raise ConfigError(
                f"rho_db = {self.rho_db:g} is out of range:"
                f" it must lie in [{rho_lo:g}, {rho_hi:g}] dB"
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


def _same(a, b) -> bool:
    """Equal, with NaN equal to NaN whatever object holds it."""
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


class _NanEqual:
    """Equality for a frozen dataclass: two instances of one class are
    equal when every field is, a NaN field equal to any NaN (a Python or a
    numpy one, or one unpickled from a worker process)."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(a, b) for a, b in zip(self._fields(), other._fields()))

    def __hash__(self):
        return hash(tuple(None if v != v else v for v in self._fields()))


@dataclass(frozen=True, eq=False)
class TrialRecord(_NanEqual):
    trial_index: int
    capacity_bits: float
    rate_bits: float
    gap_bits: float
    inactive_fraction: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class SummaryStats(_NanEqual):
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


def _inactive_fraction(bf):
    """The share of RF shifters switched off, of a design or of each of a stack."""
    on = (bf.f_rf != 0).sum(axis=(-2, -1), dtype=float) + (bf.w_rf != 0).sum(
        axis=(-2, -1), dtype=float
    )
    total = math.prod(bf.f_rf.shape[-2:]) + math.prod(bf.w_rf.shape[-2:])
    return 1.0 - on / total


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one Monte-Carlo trial on its own random stream: the batch of one."""
    return run_trials(config, [trial_index])[0]


def _records(config: ExperimentConfig, indices: list[int]) -> dict[int, TrialRecord]:
    """The records of the trials ``indices`` that every stage keeps, by trial
    index, from one stack of their draws.

    A stage drops the draws it refuses: a rank below k, a dead selection
    column, a zero-forcing inverse past COND_LIMIT, stream gains
    waterfilling cannot take, a noise covariance past COND_LIMIT, and last
    a capacity or rate that is not finite.  A failed stacked LAPACK call
    raises for the whole stack.
    """
    spec = config.scheme.spec
    rho = 10.0 ** (config.rho_db / 10.0)
    chan = draw_channels(config.channel, config.master_seed, indices)
    rows = np.arange(len(indices))  # the batch positions still in the stack
    inactive = np.full(len(indices), math.nan)  # by batch position
    # Each stage keeps the rows it passes (p2p_rates instead rates a refused
    # draw NaN, which the finiteness test drops); a name whose arrays the
    # later stages do not read is dropped at once, to hold the batch's peak
    # memory.
    if spec.multiuser:
        baseline, ok = mu_zf_digital_designs(chan)
        rows, chan = kept_rows(ok, rows, chan)
        capacity = rate = mu_streams(chan, baseline, rho).sum(axis=-1)
        del baseline
        if spec.design is not None:
            svd, ok = channel_svds(chan, config.k)
            rows, chan, capacity, svd = kept_rows(ok, rows, chan, capacity, svd)
            bf, ok = spec.design(chan, svd, config)
            del svd
            rows, chan, capacity = kept_rows(ok, rows, chan, capacity)
            rate = mu_streams(chan, bf, rho).sum(axis=-1)
    else:
        svd, ok = channel_svds(chan, config.k)
        rows, chan, svd = kept_rows(ok, rows, chan, svd)
        capacity = capacity_streams(svd.sigma, rho).sum(axis=-1)
        bf, ok = made = spec.design(chan, svd, config)
        del svd
        if spec.reports_inactive:
            inactive[rows[ok]] = _inactive_fraction(bf)
        rate = p2p_rates(chan, made, rho)
    out = {}
    for row, c, r in zip(rows.tolist(), capacity.tolist(), rate.tolist()):
        if math.isfinite(c) and math.isfinite(r):
            i = indices[row]
            out[i] = TrialRecord(i, c, r, c - r, float(inactive[row]), False)
    return out


def run_trials(config: ExperimentConfig, indices) -> list[TrialRecord]:
    """The records of the trials ``indices``, computed as one batch.

    A trial a stage refuses is recorded as degenerate.  When a stacked
    LAPACK call of the batch fails, each trial is run again as a batch of
    one, and a trial whose own call fails is excluded.
    """
    indices = list(indices)
    try:
        done = _records(config, indices)
    except np.linalg.LinAlgError:
        if len(indices) > 1:
            return [r for i in indices for r in run_trials(config, [i])]
        done = {}
    nan = math.nan
    return [done.get(i) or TrialRecord(i, nan, nan, nan, nan, True) for i in indices]


def trial_batches(channel: ChannelModel, trials: int, workers: int = 1) -> list[range]:
    """The trial indices ``0..trials - 1`` of draws of ``channel`` in
    consecutive batches of near-equal size.

    A batch holds at most ``BATCH_BYTES`` of stacked draws, and always one
    trial: n_r n_t complex entries per dense draw, (n_r + n_t) L per
    geometric draw's steering blocks.  The batch count is a multiple of
    ``workers`` (up to one batch per trial), so ``workers`` processes get
    equal shares.
    """
    n_t, n_r, l_paths = channel.n_t, channel.n_r, channel.l_paths
    entries = n_r * n_t if l_paths is None else (n_r + n_t) * l_paths
    size = max(1, BATCH_BYTES // (np.dtype(complex).itemsize * entries))
    count = -(-trials // size)
    count = min(trials, -(-count // workers) * workers)
    bounds = [trials * j // count for j in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


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
    # schemes that do not report inactive shifters record NaN; dropping those
    # (not averaging them) keeps the summary's NaN the one math.nan, so
    # summaries of equal runs compare equal
    inactive = np.array([r.inactive_fraction for r in included])
    mean_inact, se_inact = _mean_se(inactive[~np.isnan(inactive)])
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

    A KeyboardInterrupt raised while the parent forks its workers or stops
    and reaps them can be lost in an at-fork hook or leave a worker
    unrecorded or unreaped; held, the signal is delivered on every exit
    (an exception leaving the body becomes the KeyboardInterrupt's
    context), with every worker accounted for.  Processes forked
    meanwhile inherit the holding handler until they ignore SIGINT.  Off the main thread, which
    never runs Python signal handlers, nothing is held.
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
        if held:  # delivered even while an exception leaves the body
            signal.raise_signal(signal.SIGINT)


@contextmanager
def _one_blas_thread():
    """Run the body with this process's BLAS on one thread, then restore the
    previous count on every exit, an interrupt included.

    Workers forked meanwhile inherit the single thread.  Setting the
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


def _run_share(config: ExperimentConfig, batches) -> list[TrialRecord]:
    return [r for batch in batches for r in run_trials(config, batch)]


# The pool: a (process, pipe end) pair per worker, in fork order.  The
# first pooled point forks it and every later one reuses it; the lock keeps
# one pooled point at a time in it.
_workers: list = []
_pool_lock = threading.RLock()


def _serve(conn, parent_end) -> None:
    """A pooled worker's body: run each ``(config, share)`` it receives and
    send back the records, or the exception that stopped them, until EOF.
    Its copy of the parent's pipe end is closed, so the parent's exit ends
    it.  SIGINT is left to the parent, which stops its workers; the single
    BLAS thread is inherited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            config, share = conn.recv()
        except EOFError:
            return
        try:
            result = _run_share(config, share)
        except BaseException as exc:  # re-raised in the parent
            result = exc
        conn.send(result)


def _forget_workers() -> None:
    """In any forked child: drop the parent's pool and close this copy of
    its pipe ends, so a pooled point here forks workers of its own."""
    global _pool_lock
    _pool_lock = threading.RLock()
    for proc, conn in _workers:
        conn.close()
        # an os.fork()ed child would otherwise count the parent's workers
        # among its own, and terminate them when it exits
        multiprocessing.process._children.discard(proc)
    _workers.clear()


os.register_at_fork(after_in_child=_forget_workers)


def _close_workers(kill: bool = False) -> None:
    """Reap every pooled worker, each ended by the EOF of its pipe or, with
    ``kill``, killed first (a running share is not waited for)."""
    with _pool_lock, _sigint_held():
        while _workers:
            proc, conn = _workers.pop()
            conn.close()
            if kill and proc.exitcode is None:
                proc.kill()
            proc.join()


def _pool(count: int) -> list:
    """The first ``count`` pooled workers, forking those missing.  A pool
    with a dead worker is killed and forked afresh."""
    if not all(proc.is_alive() for proc, _ in _workers):
        _close_workers(kill=True)
    # fork, not the platform default: a spawn or forkserver start (the
    # Linux default from Python 3.14) would not inherit the single thread
    fork = multiprocessing.get_context("fork")
    with _sigint_held():  # a worker holds SIGINT, too, until it ignores it
        while len(_workers) < count:
            conn, child_end = fork.Pipe()
            proc = fork.Process(target=_serve, args=(child_end, conn), daemon=True)
            proc.start()
            _workers.append((proc, conn))
            child_end.close()
    return _workers[:count]


def _pooled(config: ExperimentConfig, shares: list) -> list[TrialRecord]:
    """The records of every share: ``shares[0]`` run here, each other by a
    pooled worker, whose records come back over its pipe.

    A worker's exception is raised here, as is a RuntimeError naming the
    exit code of a worker that ended without sending its records.  On any
    such exit, an interrupt included, the whole pool is killed and reaped,
    and the next pooled point forks afresh.
    """
    with _pool_lock, _one_blas_thread():
        try:
            workers = _pool(len(shares) - 1)
            for (_, conn), share in zip(workers, shares[1:]):
                conn.send((config, share))
            records = _run_share(config, shares[0])
            for proc, conn in workers:
                try:
                    result = conn.recv()
                except EOFError:  # the worker ended without sending
                    proc.join()
                    raise RuntimeError(
                        f"a trial worker exited with code {proc.exitcode}"
                        " before sending its records"
                    ) from None
                if isinstance(result, BaseException):
                    raise result
                records += result
            return records
        except BaseException:
            _close_workers(kill=True)
            raise


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all trials of a single-point config; deterministic for fixed config.

    The trials run in batches (``trial_batches``, ``run_trials``).  With
    workers > 1 (but never more workers than ``config.trials``) the batches
    are dealt into ``workers`` equal static shares: the parent runs the
    first share itself and sends each other one to a pooled worker
    (``_pooled``).  Aggregation is ordered by trial_index either way.

    The pool is forked (by fork, whatever the platform's default start
    method) by the first pooled point and reused by every later one in
    the process; a point that needs more workers forks only those
    missing, and one that needs fewer uses the first.  An idle worker
    costs one Python process, most of whose pages it shares with the
    parent.  A lock runs one pooled point at a time on the pool, and a
    forked child forgets its parent's pool and forks its own.  The
    parent sets its BLAS to one thread for each pooled point and restores
    its count when the point is done, so each worker inherits one thread
    and ``workers`` processes keep to ``workers`` cores; a serial run
    keeps the library's default.  When a point raises, is interrupted or
    loses a worker, and when a worker is found dead before a point, the
    whole pool is killed and reaped, and the next pooled point forks
    afresh.  Workers ignore SIGINT: on an interrupt the parent kills them
    without waiting for their running batches and re-raises
    ``KeyboardInterrupt``.  The workers are daemons, reaped when the
    interpreter exits, and each ends when the parent's end of its pipe
    closes, so none outlives the parent.  A trial's bits depend on its
    (master_seed, trial_index) and on the BLAS thread count, not on the
    batch or process it ran in, so at large n a pooled and a serial run
    can differ in the last bit (see README).
    """
    if config.sweep is not None:
        raise ConfigError("config still carries a sweep axis; expand_sweep() it first")
    workers = max(1, min(workers, config.trials))
    batches = trial_batches(config.channel, config.trials, workers)
    if workers == 1:
        records = _run_share(config, batches)
    else:
        records = _pooled(config, [batches[j::workers] for j in range(workers)])
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
