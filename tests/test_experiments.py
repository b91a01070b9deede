"""Harness: trial execution, aggregation, sweeps and figure presets."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamsim

from beamsim import (
    ChannelModel,
    ChannelRealization,
    ConfigError,
    ExperimentConfig,
    GEOMETRIC,
    RAYLEIGH,
    Scheme,
    SweepAxis,
    expand_sweep,
    figure_preset,
    run_experiment,
    run_trial,
    run_trials,
)
from beamsim import channel, experiments, linalg, rates
from beamsim.configio import parse_config_text, serialize_config
from beamsim.experiments import (
    DEFAULT_SEED,
    RHO_DB_RANGE,
    SCHEMES,
    SummaryStats,
    TrialRecord,
    analytic_gap,
    result_row,
)
from beamsim.linalg import blas_thread_control
from beamsim import mixed_gap, mu_zf_gap, quant_gap_bound, selection_gap, svd_phase_gap


def config(
    scheme=Scheme("svd_phase"), n=16, k=4, m=None, trials=30, seed=99, rho_db=34.0, **kw
):
    if m is None:
        m = 2 * k if scheme.kind == "double_rf" else k
    n_r = k if scheme.kind.startswith("mu_") else n
    return ExperimentConfig(
        name="t",
        channel=ChannelModel(RAYLEIGH, n, n_r),
        k=k,
        m=m,
        rho_db=rho_db,
        scheme=scheme,
        trials=trials,
        master_seed=seed,
        **kw,
    )


# kind -> (scheme, CSV label, valid m range at k = 4)
SPEC_CASES = {
    "digital": (Scheme("digital"), "digital", (4, 4)),
    "svd_phase": (Scheme("svd_phase"), "svd_phase", (4, 4)),
    "double_rf": (Scheme("double_rf"), "double_rf", (8, 8)),
    "mixed": (Scheme("mixed"), "mixed", (4, 8)),
    "quantized": (Scheme("quantized", bits=2), "quantized(b=2)", (4, 4)),
    "selection": (Scheme("selection", beta_percent=25.0), "selection(beta=25)", (4, 4)),
    "mu_zf_hybrid": (Scheme("mu_zf_hybrid"), "mu_zf_hybrid", (4, 4)),
    "mu_zf_digital": (Scheme("mu_zf_digital"), "mu_zf_digital", (4, 4)),
}


class TestConfigValidation:
    def test_m_mismatch(self):
        with pytest.raises(ConfigError):
            config(scheme=Scheme("svd_phase"), m=5)

    def test_double_rf_m(self):
        cfg = config(scheme=Scheme("double_rf"))
        assert cfg.m == 8

    def test_k_exceeds_antennas(self):
        with pytest.raises(ConfigError):
            config(n=2, k=4)

    def test_mu_needs_single_antenna_users(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                name="bad",
                channel=ChannelModel(RAYLEIGH, 16, 16),
                k=4,
                m=4,
                rho_db=10.0,
                scheme=Scheme("mu_zf_hybrid"),
            )

    def test_unknown_sweep_param(self):
        with pytest.raises(ConfigError):
            config(sweep=SweepAxis("foo", (1.0,)))

    def test_scheme_payload_validation(self):
        with pytest.raises(ValueError):
            Scheme("quantized")
        with pytest.raises(ValueError):
            Scheme("selection", beta_percent=100.0)
        with pytest.raises(ValueError):
            Scheme("svd_phase", bits=3)


class TestTrialsAndDeterminism:
    def test_single_trial_repeatable(self):
        cfg = config(trials=1)
        a = run_experiment(cfg).records[0]
        b = run_experiment(cfg).records[0]
        assert a == b

    def test_gap_is_capacity_minus_rate(self):
        rec = run_trial(config(), 3)
        assert rec.gap_bits == rec.capacity_bits - rec.rate_bits

    def test_digital_equals_double_rf_mean(self):
        r_dig = run_experiment(config(scheme=Scheme("digital"), trials=30))
        r_dbl = run_experiment(config(scheme=Scheme("double_rf"), trials=30))
        assert r_dig.summary.mean_rate == pytest.approx(r_dbl.summary.mean_rate, abs=1e-9)

    def test_worker_count_does_not_change_summary(self):
        cfg = config(trials=24)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.summary == parallel.summary
        # repr comparison keeps nan fields (unpickled by the pool) equal
        assert [repr(r) for r in serial.records] == [repr(r) for r in parallel.records]

    def test_summary_standard_error(self):
        res = run_experiment(config(trials=50))
        rates = np.array([r.rate_bits for r in res.records])
        assert res.summary.se_rate == pytest.approx(
            float(np.std(rates, ddof=1) / math.sqrt(50)), abs=1e-12
        )

    def test_summaries_with_nan_from_numpy_compare_equal(self):
        values = dict(trial_count=0, excluded_count=3, analytic_rate=None)
        stats = ("capacity", "rate", "gap", "inactive")
        fields = [f"{p}_{s}" for s in stats for p in ("mean", "se")]
        plain = SummaryStats(**values, **dict.fromkeys(fields, math.nan))
        numpy_nan = SummaryStats(**values, **dict.fromkeys(fields, np.float64("nan")))
        assert plain == numpy_nan and hash(plain) == hash(numpy_nan)
        assert plain != replace(numpy_nan, excluded_count=2)
        assert plain != replace(numpy_nan, mean_rate=1.0)

    def test_sweep_config_must_be_expanded(self):
        cfg = config(sweep=SweepAxis("rho_db", (0.0, 10.0)))
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def _blas_threads_batch(config, indices):
    """Stand-in for run_trials that records the BLAS thread count it ran on."""
    threads = blas_thread_control()[1]()
    return [TrialRecord(i, float(threads), 0.0, 0.0, math.nan) for i in indices]


def _os_threads_batch(config, indices):
    """Stand-in for run_trials that records how many OS threads its process has."""
    threads = len(os.listdir("/proc/self/task"))
    return [TrialRecord(i, float(threads), 0.0, 0.0, math.nan) for i in indices]


def _pid_batch(config, indices):
    """Stand-in for run_trials that records the pid of the process it ran in."""
    return [TrialRecord(i, float(os.getpid()), 0.0, 0.0, math.nan) for i in indices]


def _failing_batch(config, indices):
    raise RuntimeError("stand-in trial failure")


def _interrupted_batch(config, indices):
    raise KeyboardInterrupt


def _failing_in_workers(config, indices):
    """Stand-in for run_trials that fails in a pool worker only, so only a
    worker's exception can end the point."""
    if multiprocessing.parent_process() is not None:
        raise ValueError("worker share failed")
    return _pid_batch(config, indices)


# a worker that exits without its records is reported within this bound
WORKER_EXIT_BOUND_S = 30.0


def record_process_starts(monkeypatch, limit=None):
    """Record the start method of every process started; fail before
    starting more than ``limit``."""
    methods = []
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        if limit is not None and len(methods) >= limit:
            raise AssertionError(f"more than {limit} processes started")
        methods.append(self._start_method)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return methods


@pytest.fixture
def two_blas_threads():
    """Run the test with this process's BLAS on two threads; yield the count
    getter and restore the original count afterwards."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count a process's threads in")
    control = blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count entry point")
    set_threads, get_threads = control
    original = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(original)


class TestPool:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        control = blas_thread_control()
        if control is None:
            pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count entry point")
        before = control[1]()
        monkeypatch.setattr(experiments, "run_trials", _blas_threads_batch)
        res = run_experiment(config(trials=8), workers=2)
        assert [r.capacity_bits for r in res.records] == [1.0] * 8
        assert control[1]() == before

    # n = 64 is where OpenBLAS starts threads of its own in a serial run
    @pytest.mark.parametrize(
        "scheme",
        [Scheme("svd_phase"), Scheme("selection", beta_percent=25.0), Scheme("mu_zf_hybrid")],
        ids=["svd_phase", "selection", "mu_zf_hybrid"],
    )
    def test_pool_records_equal_serial_at_n64(self, scheme):
        cfg = config(scheme=scheme, n=64, trials=12)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert [repr(r) for r in serial.records] == [repr(r) for r in parallel.records]

    def test_workers_start_no_blas_helper_thread(self, two_blas_threads, monkeypatch):
        # a worker that set its own thread count would start an OpenBLAS
        # helper thread beside its main one
        monkeypatch.setattr(experiments, "run_trials", _os_threads_batch)
        res = run_experiment(config(trials=8), workers=2)
        assert [r.capacity_bits for r in res.records] == [1.0] * 8

    @pytest.mark.parametrize(
        "trial, raised",
        [
            (_blas_threads_batch, None),
            (_failing_batch, RuntimeError),
            (_interrupted_batch, KeyboardInterrupt),
        ],
        ids=["normal_return", "failing_trial", "interrupt"],
    )
    def test_parent_blas_threads_restored(self, trial, raised, two_blas_threads, monkeypatch):
        monkeypatch.setattr(experiments, "run_trials", trial)
        if raised is None:
            run_experiment(config(trials=8), workers=2)
        else:
            with pytest.raises(raised):
                run_experiment(config(trials=8), workers=2)
        assert two_blas_threads() == 2

    def test_pool_runs_without_blas_thread_control(self, monkeypatch):
        monkeypatch.setattr(experiments, "blas_thread_control", lambda: None)
        cfg = config(trials=6)
        pooled = run_experiment(cfg, workers=2)
        serial = run_experiment(cfg, workers=1)
        assert [repr(r) for r in pooled.records] == [repr(r) for r in serial.records]

    def test_pool_forks_whatever_the_default_start_method(self, monkeypatch):
        # only forked workers inherit the parent's single BLAS thread
        methods = record_process_starts(monkeypatch)
        run_experiment(config(trials=4), workers=2)
        assert methods == ["fork"]

    def test_pool_is_no_larger_than_the_point(self, monkeypatch):
        # the parent runs a share itself: 3 trials start 2 processes
        methods = record_process_starts(monkeypatch, limit=2)
        cfg = config(trials=3)
        pooled = run_experiment(cfg, workers=8)
        assert len(methods) == 2
        serial = run_experiment(cfg, workers=1)
        assert [repr(r) for r in pooled.records] == [repr(r) for r in serial.records]

    # n = 128 runs a trial per batch, 12 batches a share; n = 8 stacks 12
    # trials per batch, one batch a share
    @pytest.mark.parametrize("n", [128, 8])
    def test_pool_shares_are_equal(self, n, monkeypatch):
        monkeypatch.setattr(experiments, "run_trials", _pid_batch)
        res = run_experiment(config(n=n, trials=24), workers=2)
        assert [r.trial_index for r in res.records] == list(range(24))
        pids = [r.capacity_bits for r in res.records]
        assert sorted(pids.count(p) for p in set(pids)) == [12, 12]
        assert float(os.getpid()) in pids  # the parent ran a share

    def test_held_sigint_is_delivered_when_the_body_raises(self):
        # Ctrl-C while a failing fork is held back still interrupts
        before = signal.getsignal(signal.SIGINT)
        with pytest.raises(KeyboardInterrupt) as raised:
            with experiments._sigint_held():
                signal.raise_signal(signal.SIGINT)
                raise OSError("fork failed")
        assert isinstance(raised.value.__context__, OSError)
        assert signal.getsignal(signal.SIGINT) is before

    def test_worker_exit_without_records_raises_and_reaps(self, monkeypatch):
        parent = os.getpid()

        def exiting_batch(config, indices):
            if os.getpid() != parent:
                os._exit(3)
            return _pid_batch(config, indices)

        monkeypatch.setattr(experiments, "run_trials", exiting_batch)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_experiment(config(trials=8), workers=3)
        assert time.monotonic() - start < WORKER_EXIT_BOUND_S
        assert multiprocessing.active_children() == []

    def test_worker_exception_reaches_the_parent(self, monkeypatch):
        # the parent's own share succeeds, so only a worker's pickled
        # exception can end the point
        parent = os.getpid()

        def failing_in_workers(config, indices):
            if os.getpid() != parent:
                raise ValueError("worker share failed")
            return _pid_batch(config, indices)

        monkeypatch.setattr(experiments, "run_trials", failing_in_workers)
        with pytest.raises(ValueError, match="^worker share failed$"):
            run_experiment(config(trials=8), workers=2)
        assert multiprocessing.active_children() == []

    # serially OpenBLAS runs its own threads from n = 64, and the Gram
    # route (n >= 32) writes every anchor it factors exactly, so a quantized
    # design does not snap on the sign of a rounding residue
    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("kind", list(SPEC_CASES))
    def test_pooled_records_equal_serial_for_every_scheme(self, kind, n):
        scheme, _, (lo, hi) = SPEC_CASES[kind]
        cfg = config(scheme=scheme, n=n, m=(lo + hi) // 2, trials=6, seed=DEFAULT_SEED)
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        assert [repr(r) for r in pooled.records] == [repr(r) for r in serial.records]

    # at n = 512 the two runs' BLAS thread counts still move the last bits
    # of the factors, which no longer decide a snapped phase: before the
    # anchors were written exactly, b = 1 records differed by up to 0.16 bits
    @pytest.mark.parametrize("bits", [1, 3])
    def test_pooled_quantized_rates_equal_serial_at_n512(self, bits):
        cfg = config(scheme=Scheme("quantized", bits=bits), n=512, trials=6, seed=DEFAULT_SEED)
        serial = [r.rate_bits for r in run_experiment(cfg, workers=1).records]
        pooled = [r.rate_bits for r in run_experiment(cfg, workers=2).records]
        np.testing.assert_allclose(pooled, serial, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["svd_phase", "selection"])
    def test_pooled_records_equal_serial_records(self, kind):
        # selection records an inactive share, the others a NaN one
        cfg = batched_config(kind, 8, trials=20)
        assert run_experiment(cfg, 2).records == run_experiment(cfg, 1).records

    # geometric draws factor on the zgesdd route (the L x L core), whose
    # anchors keep a rounding residue; 12 trials are two batches of 6
    @pytest.mark.parametrize("bits", [1, 3])
    def test_pooled_geometric_quantized_records_equal_serial(self, bits):
        cfg = geometric_config(Scheme("quantized", bits=bits), 128, 5, 4, trials=12)
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        assert [repr(r) for r in pooled.records] == [repr(r) for r in serial.records]


def worker_pids() -> list[int]:
    return [proc.pid for proc, _ in experiments._workers]


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def serial_reprs(cfg) -> list[str]:
    return [repr(r) for r in run_experiment(cfg, workers=1).records]


def pooled_reprs(cfg, workers=2) -> list[str]:
    return [repr(r) for r in run_experiment(cfg, workers=workers).records]


class TestPoolLifetime:
    """The pool is forked by the first pooled point, reused by the later
    ones, and killed and forked afresh after a point that fails."""

    def test_points_reuse_the_pool_and_grow_it(self, monkeypatch):
        methods = record_process_starts(monkeypatch)
        first = config(trials=8)
        second = config(scheme=Scheme("selection", beta_percent=25.0), n=64, trials=6)
        pooled = [pooled_reprs(first), pooled_reprs(second)]
        assert methods == ["fork"]
        pids = worker_pids()
        assert pooled == [serial_reprs(first), serial_reprs(second)]
        # a point on more workers forks only the ones missing, and one on
        # fewer uses the first
        assert pooled_reprs(first, workers=3) == pooled[0]
        assert methods == ["fork"] * 2 and worker_pids()[:1] == pids
        assert pooled_reprs(second) == pooled[1]
        assert len(methods) == 2

    @pytest.mark.parametrize(
        "batch, raised",
        [
            (_failing_batch, RuntimeError),
            (_failing_in_workers, ValueError),
            (_interrupted_batch, KeyboardInterrupt),
        ],
        ids=["failing_trial", "worker_exception", "interrupt"],
    )
    def test_failed_point_reaps_the_pool_and_the_next_forks_afresh(
        self, batch, raised, monkeypatch
    ):
        cfg = config(trials=8)
        before = pooled_reprs(cfg)
        with monkeypatch.context() as patched:
            patched.setattr(experiments, "run_trials", batch)
            # the old pool's run_trials is not patched: fork one that is
            experiments._close_workers()
            with pytest.raises(raised):
                run_experiment(cfg, workers=2)
        assert multiprocessing.active_children() == [] and worker_pids() == []
        methods = record_process_starts(monkeypatch)
        assert pooled_reprs(cfg) == before == serial_reprs(cfg)
        assert methods == ["fork"]

    def test_killed_worker_is_replaced_between_points(self, monkeypatch):
        cfg = config(trials=12)
        pooled_reprs(cfg, workers=3)
        (dead, _), (alive, _) = experiments._workers
        os.kill(dead.pid, signal.SIGKILL)
        dead.join()
        methods = record_process_starts(monkeypatch)
        assert pooled_reprs(cfg, workers=3) == serial_reprs(cfg)
        # the pool with a dead worker was replaced whole
        assert methods == ["fork"] * 2
        assert not {dead.pid, alive.pid} & set(worker_pids())
        assert not alive.is_alive()

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_no_worker_outlives_its_process(self, ending):
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc to look processes up in")
        end = "os.kill(os.getpid(), signal.SIGKILL)" if ending == "sigkill" else "pass"
        script = (
            "import os, signal\n"
            "from beamsim import ChannelModel, ExperimentConfig, Scheme, experiments\n"
            "channel = ChannelModel('rayleigh', 16, 16)\n"
            "cfg = ExperimentConfig('t', channel, 4, 4, 34.0, Scheme('svd_phase'), trials=6)\n"
            "experiments.run_experiment(cfg, workers=3)\n"
            "print(*(proc.pid for proc, _ in experiments._workers), flush=True)\n"
            f"{end}\n"
        )
        src = os.path.dirname(os.path.dirname(beamsim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=WORKER_EXIT_BOUND_S,
        )
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2, proc.stderr
        # a killed parent's workers end at the EOF of their pipes
        deadline = time.monotonic() + WORKER_EXIT_BOUND_S
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(running, pids))

    def test_forked_child_runs_a_pool_of_its_own(self, monkeypatch):
        cfg = config(trials=8)
        expected = pooled_reprs(cfg)
        parent_pids = worker_pids()
        read, write = os.pipe()
        child = os.fork()
        if child == 0:  # the child: report, reap its pool and leave at once
            code = 1
            try:
                reprs = pooled_reprs(cfg)
                os.write(write, repr((reprs, worker_pids())).encode())
                experiments._close_workers()
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read) as pipe:
            reprs, child_pids = eval(pipe.read())
        assert os.waitpid(child, 0)[1] == 0
        assert reprs == expected
        assert len(child_pids) == 1 and child_pids != parent_pids
        # the parent's pool is untouched by the child
        methods = record_process_starts(monkeypatch)
        assert pooled_reprs(cfg) == expected and worker_pids() == parent_pids
        assert methods == []

    def test_threads_run_pooled_points_at_once(self):
        # more threads than the pool has workers, switching often
        configs = [
            config(trials=8),
            config(scheme=Scheme("mu_zf_hybrid"), n=64, trials=6),
            config(scheme=Scheme("digital"), n=8, trials=9),
        ]
        results = {}
        start = threading.Barrier(len(configs))

        def run(cfg):
            start.wait()
            results[cfg.scheme.kind] = [pooled_reprs(cfg) for _ in range(3)]

        threads = [threading.Thread(target=run, args=(cfg,), daemon=True) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WORKER_EXIT_BOUND_S)
                assert not thread.is_alive()  # two points on one pool's pipes can deadlock
        finally:
            sys.setswitchinterval(interval)
        for cfg in configs:
            assert results[cfg.scheme.kind] == [serial_reprs(cfg)] * 3


P2P_SCHEMES = [
    Scheme("digital"),
    Scheme("svd_phase"),
    Scheme("double_rf"),
    Scheme("mixed"),
    Scheme("quantized", bits=2),
    Scheme("selection", beta_percent=25.0),
]


def geometric_config(scheme, n, l, k, trials=2):
    lo, hi = scheme.spec.m_per_k
    return ExperimentConfig(
        name="geo",
        channel=ChannelModel(GEOMETRIC, n, n, l_paths=l),
        k=k,
        m=(lo * k + hi * k + 1) // 2,  # mixed: k + ceil(k / 2) chains
        rho_db=34.0,
        scheme=scheme,
        trials=trials,
        master_seed=21,
    )


def dense_project(chan, w, f):
    """W^H H F through the formed dense h, as trials computed it before
    the path factors were used."""
    return linalg.adjoint(w) @ chan.h @ f


class TestGeometricFromFactors:
    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    def test_trial_forms_no_h_and_one_qr_per_block(self, scheme, monkeypatch):
        drawn, qrs = [], []
        real_draw, real_qr = channel.draw_path_stack, np.linalg.qr
        monkeypatch.setattr(
            channel, "draw_path_stack", lambda *a: drawn.append(real_draw(*a)) or drawn[-1]
        )
        monkeypatch.setattr(np.linalg, "qr", lambda a: qrs.append(a.shape) or real_qr(a))
        rec = run_trial(geometric_config(scheme, 64, 5, 4), 0)
        assert not rec.degenerate
        assert "h" not in vars(drawn[0])
        assert qrs == [(1, 64, 5), (1, 64, 5)]

    def test_rank_starved_trial_forms_no_h_and_runs_no_svd(self, monkeypatch):
        # k > L is refused from the path count alone
        drawn, svds = [], []
        real_draw, real_svd = channel.draw_path_stack, linalg.thin_svd
        monkeypatch.setattr(
            channel, "draw_path_stack", lambda *a: drawn.append(real_draw(*a)) or drawn[-1]
        )
        for module in (channel, linalg):
            monkeypatch.setattr(module, "thin_svd", lambda *a: svds.append(a) or real_svd(*a))
        rec = run_trial(geometric_config(Scheme("svd_phase"), 256, 2, 4), 0)
        assert rec.degenerate
        assert "h" not in vars(drawn[0])
        assert svds == []

    def test_records_match_dense_oracle(self, monkeypatch):
        configs = [
            geometric_config(scheme, n, l, k)
            for scheme in P2P_SCHEMES
            for n in (16, 64, 256)
            for l in (1, 2, 5)
            for k in sorted({1, l})
        ]
        fast = [run_trial(c, t) for c in configs for t in range(c.trials)]
        monkeypatch.setattr(ChannelRealization, "project", dense_project)
        dense = [run_trial(c, t) for c in configs for t in range(c.trials)]
        worst = 0.0
        for a, b in zip(fast, dense):
            assert a.degenerate == b.degenerate
            assert repr(a.inactive_fraction) == repr(b.inactive_fraction)
            if not a.degenerate:
                assert a.capacity_bits == b.capacity_bits
                worst = max(worst, abs(a.rate_bits - b.rate_bits) / b.rate_bits)
        assert worst <= 1e-12
        assert sum(not r.degenerate for r in fast) >= 0.9 * len(fast)


# the numpy.linalg calls a trial makes on its stack, whose failure reruns
# the batch one trial at a time
LAPACK_CALLS = ["svd", "qr", "cholesky", "solve", "eigvalsh", "inv"]


def lapack_config(call: str, trials: int) -> ExperimentConfig:
    """A config whose trials make the numpy.linalg ``call``: a Rayleigh
    svd_phase trial factors (svd) and rates (cholesky, solve, eigvalsh),
    a geometric one also QRs its steering blocks, and a zero-forcing one
    inverts."""
    if call == "qr":
        return geometric_config(Scheme("svd_phase"), 16, 5, 4, trials=trials)
    if call == "inv":
        return config(scheme=Scheme("mu_zf_hybrid"), trials=trials)
    return config(trials=trials)


class TestDegenerateAccounting:
    def test_rank_starved_geometric_all_excluded(self):
        cfg = ExperimentConfig(
            name="starved",
            channel=ChannelModel(GEOMETRIC, 8, 8, l_paths=2),
            k=4,
            m=4,
            rho_db=34.0,
            scheme=Scheme("svd_phase"),
            trials=10,
            master_seed=1,
        )
        res = run_experiment(cfg)
        assert res.summary.excluded_count == 10
        assert res.summary.trial_count == 0
        assert math.isnan(res.summary.mean_rate)
        assert all(r.degenerate for r in res.records)

    def test_aggressive_selection_partially_excluded(self):
        # beta=70 on a 2-antenna array kills a whole column in ~1/3 of draws
        cfg = ExperimentConfig(
            name="aggressive",
            channel=ChannelModel(RAYLEIGH, 2, 2),
            k=1,
            m=1,
            rho_db=34.0,
            scheme=Scheme("selection", beta_percent=70.0),
            trials=60,
            master_seed=2,
        )
        res = run_experiment(cfg)
        assert 0 < res.summary.excluded_count < 60
        assert res.summary.trial_count + res.summary.excluded_count == 60
        included = [r for r in res.records if not r.degenerate]
        assert all(math.isfinite(r.rate_bits) for r in included)

    # the documented rho_db range, ends included, without a floating-point warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(SCHEMES))
    @given(rho_db=st.floats(*RHO_DB_RANGE))
    @settings(deadline=None, max_examples=25)
    def test_every_snr_gives_a_finite_or_excluded_record(self, kind, rho_db):
        rec = run_trial(config(scheme=SPEC_CASES[kind][0], n=8, rho_db=rho_db, trials=1), 0)
        values = (rec.capacity_bits, rec.rate_bits, rec.gap_bits)
        if rec.degenerate:
            assert all(math.isnan(v) for v in values)
        else:
            assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("call", LAPACK_CALLS)
    def test_lapack_failure_excludes_trial(self, call, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{call} did not converge")

        monkeypatch.setattr(np.linalg, call, fail)
        res = run_experiment(lapack_config(call, trials=5))
        assert res.summary.excluded_count == 5
        assert res.summary.trial_count == 0
        assert all(r.degenerate and math.isnan(r.rate_bits) for r in res.records)

    def test_non_finite_capacity_excludes_trial(self, monkeypatch):
        # the per-stream capacity trials look up
        monkeypatch.setattr(
            experiments, "capacity_streams", lambda sigma, rho: np.full(np.shape(sigma), math.inf)
        )
        res = run_experiment(config(trials=5))
        assert res.summary.excluded_count == 5
        assert all(r.degenerate and math.isnan(r.capacity_bits) for r in res.records)

    def test_selection_records_inactive_fraction(self):
        res = run_experiment(config(scheme=Scheme("selection", beta_percent=25.0), n=64, trials=20))
        assert 0.15 <= res.summary.mean_inactive <= 0.35


class TestSchemeTable:
    @pytest.mark.parametrize("kind", list(SCHEMES))
    def test_label_m_range_and_ini_round_trip(self, kind):
        scheme, label, (lo, hi) = SPEC_CASES[kind]
        for m in (lo - 1, hi + 1):
            with pytest.raises(ConfigError):
                config(scheme=scheme, m=m)
        for m in (lo, hi):
            cfg = config(scheme=scheme, m=m, trials=1)
            assert result_row(cfg, run_experiment(cfg).summary)["scheme"] == label
            assert parse_config_text(serialize_config(cfg)) == cfg

    def test_every_scheme_has_a_case(self):
        assert set(SPEC_CASES) == set(SCHEMES)


def count_factorizations(monkeypatch) -> list[str]:
    """Record the name of every channel factorization trials run, once per
    matrix factored: a geometric draw's ``factored_svd`` and the
    ``thin_svd`` of its core, or a Rayleigh draw's dense ``thin_svd``.  A
    batch of trials calls each once on its stacked draws (or cores), which
    counts once per draw."""
    calls = []
    for module, name in ((channel, "thin_svd"), (linalg, "thin_svd"), (channel, "factored_svd")):
        real = getattr(module, name)

        def counted(*a, real=real, name=name):
            calls.extend([name] * math.prod(np.shape(a[0])[:-2]))
            return real(*a)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestFactorOnce:
    @pytest.mark.parametrize("kind", list(SCHEMES))
    def test_one_thin_svd_per_rayleigh_trial(self, kind, monkeypatch):
        calls = count_factorizations(monkeypatch)
        res = run_experiment(config(scheme=SPEC_CASES[kind][0], trials=3))
        assert res.summary.excluded_count == 0
        # the digital ZF baseline inverts H H^H and factors nothing
        assert calls == ([] if kind == "mu_zf_digital" else ["thin_svd"] * 3)

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    def test_one_factorization_per_geometric_trial(self, scheme, monkeypatch):
        calls = count_factorizations(monkeypatch)
        res = run_experiment(geometric_config(scheme, 64, 5, 4, trials=3))
        assert res.summary.excluded_count == 0
        # one batch: the three draws' factored_svd, then their cores' thin_svd
        assert sorted(calls) == ["factored_svd"] * 3 + ["thin_svd"] * 3

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    def test_rank_starved_draw_is_excluded(self, scheme, monkeypatch):
        gen = np.random.default_rng(1)
        h = np.outer(gen.standard_normal(16), gen.standard_normal(16)).astype(complex)
        monkeypatch.setattr(
            channel,
            "draw_rayleigh_stack",
            lambda model, seed, streams: ChannelRealization(model, h=np.array([h] * len(streams))),
        )
        calls = count_factorizations(monkeypatch)
        rec = run_trial(config(scheme=scheme, trials=1), 0)
        assert rec.degenerate and math.isnan(rec.rate_bits)
        assert calls == ["thin_svd"]


def batched_config(kind, n, trials=40, **kw):
    """A Rayleigh point of ``kind`` at n x n, or n_t = n with 4 users."""
    return config(scheme=SPEC_CASES[kind][0], n=n, trials=trials, seed=7, **kw)


# every scheme on Rayleigh n = 8, 16 and 64, multiuser at 64 x 4 only
BATCHED_POINTS = [
    (kind, n)
    for kind in SCHEMES
    for n in ((64,) if SCHEMES[kind].multiuser else (8, 16, 64))
]


def split_records(cfg, size: int) -> list[str]:
    """The reprs of run_trials over the config's trials in batches of
    ``size``, called by its name in beamsim.experiments."""
    out = []
    for start in range(0, cfg.trials, size):
        out += experiments.run_trials(cfg, range(start, min(start + size, cfg.trials)))
    return [repr(r) for r in out]


def single_records(cfg) -> list[str]:
    """The reprs of run_trial over the config's trials: batches of one."""
    return [repr(run_trial(cfg, i)) for i in range(cfg.trials)]


def assert_one_row_fails_and_reruns(cfg, monkeypatch, call="eigvalsh"):
    """Make the numpy.linalg ``call`` fail on the one matrix with the
    largest bottom-left entry, alone or in a stack: only that trial is
    excluded, in batches of 1, 3 and 12, and a stack that holds it runs
    again as batches of one."""
    real, corners = getattr(np.linalg, call), []

    def recorded(a, *rest, **kw):
        corners.extend(np.ravel(a[..., -1, 0].real))
        return real(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, call, recorded)
    split_records(cfg, 1)
    worst = max(corners)

    def fail_on_one(a, *rest, **kw):
        if (a[..., -1, 0].real >= worst).any():
            raise np.linalg.LinAlgError(f"{call} did not converge")
        return real(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, call, fail_on_one)
    single = single_records(cfg)
    (bad,) = [i for i, r in enumerate(single) if "degenerate=True" in r]
    calls = record_calls(monkeypatch, "run_trials")
    for size in (1, 3, 12):
        calls.clear()
        assert split_records(cfg, size) == single
        # the batch that holds the failing row runs again row by row
        expected = []
        for start in range(0, 12, size):
            batch = list(range(start, start + size))
            expected.append(batch)
            if size > 1 and bad in batch:
                expected += [[i] for i in batch]
        assert [list(c[1]) for c in calls] == expected


# A trial's record does not depend on the batch it runs in: each test
# compares batches of ``size`` with batches of one (run_trial).
class TestBatchedTrials:
    @pytest.mark.parametrize("kind, n", BATCHED_POINTS, ids=lambda v: str(v))
    @pytest.mark.parametrize("size", [1, 3, 40], ids=["split1", "split3", "whole"])
    def test_batches_equal_run_trial(self, kind, n, size):
        cfg = batched_config(kind, n)
        assert split_records(cfg, size) == single_records(cfg)

    def test_run_trial_is_the_batch_of_one(self, monkeypatch):
        cfg = batched_config("svd_phase", 8, trials=3)
        calls = record_calls(monkeypatch, "run_trials")
        single = [experiments.run_trials(cfg, [i])[0] for i in range(3)]
        assert [run_trial(cfg, i) for i in range(3)] == single
        assert [list(c[1]) for c in calls] == [[0], [1], [2]] * 2
        assert beamsim.run_trial is run_trial

    @pytest.mark.parametrize("size", [1, 3, 40], ids=["split1", "split3", "whole"])
    def test_excluded_trials_come_from_run_trial(self, size):
        # beta = 90 at n = 16 kills an RF column in about half the draws
        cfg = config(scheme=Scheme("selection", beta_percent=90.0), n=16, trials=40, seed=5)
        single = single_records(cfg)
        assert 0 < sum("degenerate=True" in r for r in single) < cfg.trials
        assert split_records(cfg, size) == single

    @pytest.mark.parametrize("kind", [k for k in SCHEMES if not SCHEMES[k].multiuser])
    @pytest.mark.parametrize("size", [1, 3, 12], ids=["split1", "split3", "whole"])
    def test_a_zero_stream_gain_is_rated(self, kind, size, monkeypatch):
        # waterfilling takes a zero gain beside positive ones
        real = rates._stream_gains

        def one_zero(*operands):
            gains = real(*operands).copy()
            gains[..., -1] = 0.0
            return gains

        monkeypatch.setattr(rates, "_stream_gains", one_zero)
        cfg = batched_config(kind, 8, trials=12)
        records = split_records(cfg, size)
        assert records == single_records(cfg)
        assert "degenerate=True" not in "".join(records)

    @pytest.mark.parametrize("kind", [k for k in SCHEMES if not SCHEMES[k].multiuser])
    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_gains_waterfilling_refuses_exclude_the_trial(self, kind, bad, monkeypatch):
        # every gain zero, or one not finite: no trial aborts, each is excluded
        real = rates._stream_gains

        def spoiled(*operands):
            gains = real(*operands).copy()
            if bad == 0.0:
                gains[...] = 0.0
            else:
                gains[..., 0] = bad
            return gains

        monkeypatch.setattr(rates, "_stream_gains", spoiled)
        cfg = batched_config(kind, 8, trials=6)
        records = run_trials(cfg, range(6))
        assert all(r.degenerate and math.isnan(r.rate_bits) for r in records)
        assert split_records(cfg, 3) == single_records(cfg) == [repr(r) for r in records]

    @pytest.mark.parametrize("kind", list(SCHEMES))
    @pytest.mark.parametrize("size", [1, 3, 12], ids=["split1", "split3", "whole"])
    @pytest.mark.parametrize("every", [3, 1], ids=["third", "all"])
    def test_rank_one_draws_are_excluded(self, kind, size, every, monkeypatch):
        # every third (or every) trial draws a rank-1 channel
        real_draw = channel.draw_rayleigh_stack

        def draw(model, master_seed, streams):
            h = real_draw(model, master_seed, streams).h
            for row, stream in zip(h, streams):
                if stream % every == every // 2:
                    row[...] = np.outer(row[:, 0], row[0]) / abs(row[0, 0])
            return ChannelRealization(model, h=h)

        monkeypatch.setattr(channel, "draw_rayleigh_stack", draw)
        cfg = batched_config(kind, 64 if SCHEMES[kind].multiuser else 8, trials=12)
        single = single_records(cfg)
        assert ["degenerate=True" in r for r in single] == [
            i % every == every // 2 for i in range(12)
        ]
        assert split_records(cfg, size) == single

    @pytest.mark.parametrize("kind", [k for k in SCHEMES if not SCHEMES[k].multiuser])
    def test_eigvalsh_failing_on_one_row(self, kind, monkeypatch):
        # eigvalsh fails on the one matrix with the largest corner entry,
        # whether called on it alone or on a stack that holds it
        cfg = batched_config(kind, 8, trials=12)
        assert_one_row_fails_and_reruns(cfg, monkeypatch)

    def test_geometric_batches_stack_and_equal_run_trial(self, monkeypatch):
        cfg = geometric_config(Scheme("svd_phase"), 16, 5, 4, trials=4)
        stacks, real = [], channel.draw_path_stack
        monkeypatch.setattr(channel, "draw_path_stack", lambda *a: stacks.append(a) or real(*a))
        records = run_trials(cfg, range(4))
        assert [list(c[2]) for c in stacks] == [[0, 1, 2, 3]]
        assert [repr(r) for r in records] == single_records(cfg)

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("size", [1, 3, 40], ids=["split1", "split3", "whole"])
    def test_geometric_batches_equal_run_trial(self, scheme, n, size):
        cfg = geometric_config(scheme, n, 5, 4, trials=40)
        single = single_records(cfg)
        assert "degenerate=True" not in "".join(single)
        assert split_records(cfg, size) == single

    def test_more_streams_than_paths_excluded_without_svd(self, monkeypatch):
        # k = 4 > L = 2: each draw is made once, and nothing is factored
        cfg = geometric_config(Scheme("svd_phase"), 16, 2, 4, trials=6)
        calls = count_factorizations(monkeypatch)
        drawn = []
        real = channel.draw_paths
        monkeypatch.setattr(
            channel, "draw_paths", lambda m, seed, s: drawn.append(s) or real(m, seed, s)
        )
        records = run_trials(cfg, range(6))
        assert all(r.degenerate for r in records)
        assert calls == []
        assert drawn == list(range(6))

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    @pytest.mark.parametrize("size", [3, 12], ids=["split3", "whole"])
    def test_coincident_paths_excluded_through_run_trial(self, scheme, size, monkeypatch):
        # every third draw's second path coincides with its first: rank 4 < k = 5
        real = channel.draw_paths

        def coincident(model, master_seed, stream):
            beta, phi_t, phi_r = real(model, master_seed, stream)
            if stream % 3 == 1:
                phi_t[1], phi_r[1] = phi_t[0], phi_r[0]
            return beta, phi_t, phi_r

        monkeypatch.setattr(channel, "draw_paths", coincident)
        cfg = geometric_config(scheme, 16, 5, 5, trials=12)
        single = single_records(cfg)
        assert ["degenerate=True" in r for r in single] == [i % 3 == 1 for i in range(12)]
        # the rank mask drops them: no batch is run again
        calls = record_calls(monkeypatch, "run_trials")
        assert split_records(cfg, size) == single
        assert len(calls) == 12 // size

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    def test_eigvalsh_failing_on_one_row_of_a_geometric_stack(self, scheme, monkeypatch):
        cfg = geometric_config(scheme, 16, 5, 4, trials=12)
        assert_one_row_fails_and_reruns(cfg, monkeypatch)

    # eigvalsh fails on one row of every scheme's stacks above
    @pytest.mark.parametrize("call", [c for c in LAPACK_CALLS if c != "eigvalsh"])
    def test_lapack_call_failing_on_one_row(self, call, monkeypatch):
        assert_one_row_fails_and_reruns(lapack_config(call, trials=12), monkeypatch, call)

    @pytest.mark.parametrize(
        "n, trials, sizes",
        [(128, 20, [5] * 4), (256, 10, [2, 3, 2, 3]), (512, 5, [1] * 5), (16, 60, [30, 30])],
    )
    def test_geometric_batches_hold_their_path_factors(self, n, trials, sizes):
        # a five-path draw stacks (2 n) 5 complex entries: 6 fit at n = 128,
        # 3 at n = 256, 51 at n = 16, and none beside another at n = 512
        for workers in (1, 2):
            cfg = geometric_config(Scheme("svd_phase"), n, 5, 4, trials=trials)
            batches = experiments.trial_batches(cfg.channel, trials, workers)
            assert [len(b) for b in batches] == sizes
            assert [i for b in batches for i in b] == list(range(trials))

    # the ends of the documented SNR range, without a floating-point warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho_db", RHO_DB_RANGE)
    @pytest.mark.parametrize("kind", list(SCHEMES))
    def test_batches_equal_run_trial_at_the_snr_limits(self, kind, rho_db):
        cfg = batched_config(kind, 64 if SCHEMES[kind].multiuser else 8, trials=6, rho_db=rho_db)
        assert split_records(cfg, 6) == [repr(run_trial(cfg, i)) for i in range(6)]

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_large_arrays_run_a_trial_per_batch(self, n):
        for workers in (1, 2):
            batches = experiments.trial_batches(ChannelModel(RAYLEIGH, n, n), 5, workers)
            assert batches == [range(i, i + 1) for i in range(5)]

    @pytest.mark.parametrize(
        "n, n_r, trials, workers, sizes",
        [
            (8, 8, 400, 1, [100] * 4),  # 128 draws of 1 KiB fit
            (8, 8, 400, 2, [100] * 4),
            (8, 8, 300, 2, [75] * 4),  # 3 batches round up to 4
            (64, 64, 10, 1, [2] * 5),  # 2 draws of 64 KiB fit
            (64, 64, 9, 2, [1, 2, 1, 2, 1, 2]),  # 5 round up to 6
            # 32 four-user draws of 4 KiB fit; 13 batches round up to 14
            (64, 4, 400, 2, [28, 29, 28, 29, 28, 29, 29, 28, 29, 28, 29, 28, 29, 29]),
            (16, 16, 3, 8, [1, 1, 1]),
        ],
    )
    def test_batches_split_trials_evenly_within_the_cap(self, n, n_r, trials, workers, sizes):
        batches = experiments.trial_batches(ChannelModel(RAYLEIGH, n, n_r), trials, workers)
        assert [len(b) for b in batches] == sizes
        assert [i for b in batches for i in b] == list(range(trials))


# kind -> the builder names its trial looks up in beamsim.experiments; a
# point-to-point kind's first name is the one given the trial's factors
BUILDER_NAMES = {
    "digital": ("digital_designs",),
    "svd_phase": ("mixed_designs",),
    "double_rf": ("mixed_designs",),
    "mixed": ("mixed_designs",),
    "quantized": ("quantized_designs",),
    "selection": ("selection_designs",),
    "mu_zf_hybrid": ("mu_zf_digital_designs", "mu_zf_hybrid_designs"),
    "mu_zf_digital": ("mu_zf_digital_designs",),
}


def record_calls(monkeypatch, name: str) -> list[tuple]:
    """Replace ``name`` in beamsim.experiments with a wrapper that records
    the arguments of every call and then runs the original."""
    calls = []
    real = getattr(experiments, name)
    monkeypatch.setattr(experiments, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestBuildersByName:
    def test_every_scheme_has_its_builders(self):
        assert set(BUILDER_NAMES) == set(SCHEMES)

    # a patched builder name reaches every scheme that uses it
    @pytest.mark.parametrize("kind", list(SCHEMES))
    def test_patched_builder_names_run(self, kind, monkeypatch):
        calls = {name: record_calls(monkeypatch, name) for name in BUILDER_NAMES[kind]}
        rec = run_trial(config(scheme=SPEC_CASES[kind][0], trials=1), 0)
        assert not rec.degenerate
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)

    def test_mu_zf_digital_rates_its_design_once(self, monkeypatch):
        # its design is its own baseline: the capacity is also the rate
        calls = record_calls(monkeypatch, "mu_streams")
        rec = run_trial(config(scheme=Scheme("mu_zf_digital"), trials=1), 0)
        assert len(calls) == 1
        assert rec.capacity_bits == rec.rate_bits and rec.gap_bits == 0.0

    def test_quantized_design_waterfills_once(self, monkeypatch):
        # the snapped phases are designed straight from the factors, with
        # no phase-only design waterfilled first
        calls = []
        real = rates._stream_gains
        monkeypatch.setattr(rates, "_stream_gains", lambda *a: calls.append(a) or real(*a))
        rec = run_trial(config(scheme=Scheme("quantized", bits=2), trials=1), 0)
        assert not rec.degenerate
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    def test_capacity_and_design_share_one_svd(self, scheme, monkeypatch):
        real_svds, made = experiments.channel_svds, []
        monkeypatch.setattr(
            experiments, "channel_svds", lambda *a: made.append(real_svds(*a)) or made[-1]
        )
        capacity = record_calls(monkeypatch, "capacity_streams")
        built = record_calls(monkeypatch, BUILDER_NAMES[scheme.kind][0])
        rec = run_trial(config(scheme=scheme, trials=1), 0)
        assert not rec.degenerate
        assert len(made) == len(capacity) == len(built) == 1
        ((svd, _),) = made
        assert capacity[0][0] is svd.sigma
        assert built[0][0] is svd

    @pytest.mark.parametrize("scheme", P2P_SCHEMES, ids=lambda s: s.label())
    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_a_p2p_batch_projects_once(self, scheme, kind, monkeypatch):
        # the rater forms W^H H F once, for the stream gains and the rate
        calls = []
        real = ChannelRealization.project
        monkeypatch.setattr(ChannelRealization, "project", lambda *a: calls.append(a) or real(*a))
        model = ChannelModel(kind, 16, 16, l_paths=5 if kind == GEOMETRIC else None)
        records = run_trials(replace(config(scheme=scheme, trials=4), channel=model), range(4))
        assert not any(r.degenerate for r in records)
        assert len(calls) == 1


class TestSweeps:
    def test_n_sets_both_sides(self):
        cfg = config(sweep=SweepAxis("n", (8.0, 16.0)))
        points = expand_sweep(cfg)
        assert [p.channel.n_t for p in points] == [8, 16]
        assert [p.channel.n_r for p in points] == [8, 16]
        assert [p.sweep_value for p in points] == [8.0, 16.0]
        assert all(p.sweep is None for p in points)
        assert points[0].name == "t_n8"

    def test_beta_sweep(self):
        cfg = config(
            scheme=Scheme("selection", beta_percent=0.0),
            sweep=SweepAxis("beta_percent", (0.0, 25.0)),
        )
        points = expand_sweep(cfg)
        assert [p.scheme.beta_percent for p in points] == [0.0, 25.0]

    def test_noninteger_count_rejected(self):
        cfg = config(sweep=SweepAxis("n", (8.5,)))
        with pytest.raises(ConfigError):
            expand_sweep(cfg)

    def test_k_sweep_adjusts_m(self):
        cfg = config(scheme=Scheme("double_rf"), sweep=SweepAxis("k", (2.0, 3.0)))
        points = expand_sweep(cfg)
        assert [(p.k, p.m) for p in points] == [(2, 4), (3, 6)]

    def test_no_sweep_passthrough(self):
        cfg = config()
        assert expand_sweep(cfg) == [cfg]


class TestAnalyticCompanions:
    def test_gap_mapping(self):
        assert analytic_gap(config(scheme=Scheme("digital"))) == 0.0
        assert analytic_gap(config()) == svd_phase_gap(4)
        assert analytic_gap(config(scheme=Scheme("mixed"), k=3, m=5)) == mixed_gap(3, 5)
        assert analytic_gap(config(scheme=Scheme("selection", beta_percent=25.0))) == selection_gap(4, 25.0)
        assert analytic_gap(config(scheme=Scheme("mu_zf_hybrid"))) == mu_zf_gap(4)
        assert analytic_gap(config(scheme=Scheme("mu_zf_digital"))) == 0.0
        quant = analytic_gap(config(scheme=Scheme("quantized", bits=3)))
        assert quant == pytest.approx(svd_phase_gap(4) + quant_gap_bound(4, 3), abs=1e-12)

    def test_single_bit_has_no_companion(self):
        assert analytic_gap(config(scheme=Scheme("quantized", bits=1))) is None

    def test_geometric_phase_only_predicts_zero_gap(self):
        cfg = ExperimentConfig(
            name="geo",
            channel=ChannelModel(GEOMETRIC, 16, 16, l_paths=5),
            k=4,
            m=4,
            rho_db=34.0,
            scheme=Scheme("svd_phase"),
        )
        assert analytic_gap(cfg) == 0.0

    def test_summary_carries_predicted_rate(self):
        res = run_experiment(config(trials=20))
        expected = res.summary.mean_capacity - svd_phase_gap(4)
        assert res.summary.analytic_rate == pytest.approx(expected, abs=1e-12)


# Every figure point, in order, with its sweep annotation.
FIGURE_POINTS = [
    ("fig2_svd_phase_n16", "n", 16.0),
    ("fig2_svd_phase_n64", "n", 64.0),
    ("fig3_svd_phase_n8", "n", 8.0),
    ("fig3_svd_phase_n16", "n", 16.0),
    ("fig3_svd_phase_n32", "n", 32.0),
    ("fig3_svd_phase_n64", "n", 64.0),
    ("fig3_svd_phase_n128", "n", 128.0),
    ("fig3_svd_phase_n256", "n", 256.0),
    ("fig3_svd_phase_n512", "n", 512.0),
    ("fig4_svd_phase_n8", "n", 8.0),
    ("fig4_svd_phase_n16", "n", 16.0),
    ("fig4_svd_phase_n32", "n", 32.0),
    ("fig4_svd_phase_n64", "n", 64.0),
    ("fig4_svd_phase_n128", "n", 128.0),
    ("fig4_svd_phase_n256", "n", 256.0),
    ("fig4_svd_phase_n512", "n", 512.0),
    ("fig7_svd_phase_n64", None, None),
    ("fig7_quantized_b1", "bits", 1.0),
    ("fig7_quantized_b2", "bits", 2.0),
    ("fig7_quantized_b3", "bits", 3.0),
    ("fig7_quantized_b4", "bits", 4.0),
    ("fig8_mu_zf_digital_rho0", "rho_db", 0.0),
    ("fig8_mu_zf_digital_rho5", "rho_db", 5.0),
    ("fig8_mu_zf_digital_rho10", "rho_db", 10.0),
    ("fig8_mu_zf_digital_rho15", "rho_db", 15.0),
    ("fig8_mu_zf_digital_rho20", "rho_db", 20.0),
    ("fig8_mu_zf_digital_rho25", "rho_db", 25.0),
    ("fig8_mu_zf_digital_rho30", "rho_db", 30.0),
    ("fig8_mu_zf_digital_rho35", "rho_db", 35.0),
    ("fig8_mu_zf_digital_rho40", "rho_db", 40.0),
    ("fig8_mu_zf_hybrid_rho0", "rho_db", 0.0),
    ("fig8_mu_zf_hybrid_rho5", "rho_db", 5.0),
    ("fig8_mu_zf_hybrid_rho10", "rho_db", 10.0),
    ("fig8_mu_zf_hybrid_rho15", "rho_db", 15.0),
    ("fig8_mu_zf_hybrid_rho20", "rho_db", 20.0),
    ("fig8_mu_zf_hybrid_rho25", "rho_db", 25.0),
    ("fig8_mu_zf_hybrid_rho30", "rho_db", 30.0),
    ("fig8_mu_zf_hybrid_rho35", "rho_db", 35.0),
    ("fig8_mu_zf_hybrid_rho40", "rho_db", 40.0),
    ("fig9_selection_n16_beta0", "beta_percent", 0.0),
    ("fig9_selection_n16_beta10", "beta_percent", 10.0),
    ("fig9_selection_n16_beta25", "beta_percent", 25.0),
    ("fig9_selection_n16_beta50", "beta_percent", 50.0),
    ("fig9_selection_n16_beta75", "beta_percent", 75.0),
    ("fig9_selection_n64_beta0", "beta_percent", 0.0),
    ("fig9_selection_n64_beta10", "beta_percent", 10.0),
    ("fig9_selection_n64_beta25", "beta_percent", 25.0),
    ("fig9_selection_n64_beta50", "beta_percent", 50.0),
    ("fig9_selection_n64_beta75", "beta_percent", 75.0),
    ("fig10_svd_phase_n8", "n", 8.0),
    ("fig10_selection_n8", "n", 8.0),
    ("fig10_svd_phase_n16", "n", 16.0),
    ("fig10_selection_n16", "n", 16.0),
    ("fig10_svd_phase_n32", "n", 32.0),
    ("fig10_selection_n32", "n", 32.0),
    ("fig10_svd_phase_n64", "n", 64.0),
    ("fig10_selection_n64", "n", 64.0),
    ("fig10_svd_phase_n128", "n", 128.0),
    ("fig10_selection_n128", "n", 128.0),
    ("fig10_svd_phase_n256", "n", 256.0),
    ("fig10_selection_n256", "n", 256.0),
    ("fig10_svd_phase_n512", "n", 512.0),
    ("fig10_selection_n512", "n", 512.0),
]


class TestFigurePresets:
    def test_every_point_name_and_annotation(self):
        points = [c for fig_id in experiments.FIGURE_IDS for c in figure_preset(fig_id)]
        assert [(c.name, c.sweep_param, c.sweep_value) for c in points] == FIGURE_POINTS

    def test_fig3_shape(self):
        cfgs = figure_preset("fig3", trials=10)
        assert len(cfgs) == 7
        assert [c.channel.n_t for c in cfgs] == [8, 16, 32, 64, 128, 256, 512]
        assert all(c.channel.kind == RAYLEIGH for c in cfgs)
        assert all(c.scheme.kind == "svd_phase" for c in cfgs)
        assert all(c.rho_db == 34.0 for c in cfgs)

    def test_fig2_distribution_runs(self):
        cfgs = figure_preset("fig2")
        assert [c.channel.n_t for c in cfgs] == [16, 64]

    def test_fig4_geometric(self):
        cfgs = figure_preset("fig4")
        assert all(c.channel.kind == GEOMETRIC and c.channel.l_paths == 5 for c in cfgs)

    def test_fig7_bits(self):
        cfgs = figure_preset("fig7")
        kinds = [c.scheme.kind for c in cfgs]
        assert kinds.count("svd_phase") == 1
        assert [c.scheme.bits for c in cfgs if c.scheme.kind == "quantized"] == [1, 2, 3, 4]

    def test_fig8_multiuser(self):
        cfgs = figure_preset("fig8")
        assert all(c.channel.n_t == 64 and c.channel.n_r == 4 and c.k == 4 for c in cfgs)
        assert {c.scheme.kind for c in cfgs} == {"mu_zf_digital", "mu_zf_hybrid"}
        rhos = sorted({c.rho_db for c in cfgs})
        assert rhos == [float(r) for r in range(0, 41, 5)]

    def test_fig9_beta_sweep_has_companion(self):
        cfgs = figure_preset("fig9")
        assert all(c.scheme.kind == "selection" for c in cfgs)
        assert {c.channel.n_t for c in cfgs} == {16, 64}
        for c in cfgs:
            assert analytic_gap(c) is not None

    def test_fig10_pairs_selection_with_reference(self):
        cfgs = figure_preset("fig10")
        assert {c.scheme.kind for c in cfgs} == {"svd_phase", "selection"}

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            figure_preset("fig99")

    def test_trials_and_seed_forwarded(self):
        cfgs = figure_preset("fig2", trials=7, master_seed=42)
        assert all(c.trials == 7 and c.master_seed == 42 for c in cfgs)


class TestResultRow:
    def test_columns_and_values(self):
        cfg = config(trials=5)
        res = run_experiment(cfg)
        row = result_row(cfg, res.summary)
        assert row["experiment"] == "t"
        assert row["scheme"] == "svd_phase"
        assert row["n_t"] == "16" and row["trials"] == "5"
        assert float(row["mean_rate"]) == pytest.approx(res.summary.mean_rate, rel=1e-10)
        assert row["excluded"] == "0"

    def test_nan_fields_written_empty(self):
        cfg = config(trials=2)
        res = run_experiment(cfg)
        row = result_row(cfg, res.summary)
        assert row["inactive_fraction"] == ""  # not a selection run

    def test_lag1_autocorrelation_small(self):
        res = run_experiment(config(trials=500, n=16))
        rates = np.array([r.rate_bits for r in res.records])
        centered = rates - rates.mean()
        lag1 = float(np.sum(centered[:-1] * centered[1:]) / np.sum(centered**2))
        assert abs(lag1) <= 0.1
