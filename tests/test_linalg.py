"""Numerics layer: thin SVD, erf, seeded sampling, KS statistic."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import (
    DimensionError,
    ks_statistic,
    rayleigh_cdf,
    sample_complex_gaussian,
    thin_svd,
)
from beamsim import experiments, linalg
from beamsim.channel import RANK_TOL, RAYLEIGH, ChannelModel, ChannelRealization, channel_svds
from beamsim.experiments import ExperimentConfig, Scheme
from beamsim.linalg import normal_cdf

from oracles import erf_series, fresh_generator, singular_values_via_gram

HALF_SQRT_PI = 0.8862269254527579


def random_complex(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / math.sqrt(2)


class TestThinSvd:
    def test_identity_truncated(self):
        res = thin_svd(np.eye(3), 2)
        np.testing.assert_allclose(res.sigma, [1.0, 1.0], atol=1e-12)
        recon = res.u @ np.diag(res.sigma) @ res.v.conj().T
        # dropping one of three equal directions leaves residual sigma_3 = 1
        assert np.linalg.norm(np.eye(3) - recon) <= 1.0 + 1e-12
        np.testing.assert_allclose(res.u.conj().T @ res.u, np.eye(2), atol=1e-12)

    def test_real_diagonal(self):
        res = thin_svd(np.diag([3.0, 2.0, 1.0]).astype(complex), 3)
        np.testing.assert_allclose(res.sigma, [3.0, 2.0, 1.0], atol=1e-12)

    def test_oracle_8x6(self):
        gen = np.random.default_rng(42)
        a = random_complex(gen, 8, 6)
        sv = thin_svd(a, 6).sigma
        oracle = singular_values_via_gram(a)
        np.testing.assert_allclose(sv, oracle, rtol=1e-8)

    def test_oracle_equivalence_100_instances(self):
        gen = np.random.default_rng(7)
        for _ in range(100):
            rows, cols = int(gen.integers(2, 13)), int(gen.integers(2, 13))
            a = random_complex(gen, rows, cols)
            m = min(rows, cols)
            sv = thin_svd(a, m).sigma
            oracle = singular_values_via_gram(a if cols <= rows else a.conj().T)
            np.testing.assert_allclose(sv, oracle[:m], rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (5, 3), (3, 5), (16, 16), (9, 16)])
    def test_factor_properties(self, rows, cols):
        gen = np.random.default_rng(rows * 100 + cols)
        a = random_complex(gen, rows, cols)
        full = min(rows, cols)
        for m in {1, full // 2 or 1, full}:
            res = thin_svd(a, m)
            eye = np.eye(m)
            assert np.max(np.abs(res.u.conj().T @ res.u - eye)) < 1e-10
            assert np.max(np.abs(res.v.conj().T @ res.v - eye)) < 1e-10
            assert np.all(np.diff(res.sigma) <= 0) and np.all(res.sigma >= 0)
            resid = np.linalg.norm(a - res.u @ np.diag(res.sigma) @ res.v.conj().T)
            if m == full:
                assert resid <= 1e-8 * np.linalg.norm(a)
            else:
                tail = np.linalg.svd(a, compute_uv=False)[m]
                assert resid <= tail * (1 + 1e-8) * math.sqrt(full)

    def test_gauge_largest_entry_real_nonnegative(self):
        gen = np.random.default_rng(3)
        a = random_complex(gen, 10, 7)
        res = thin_svd(a, 5)
        for k in range(5):
            i = int(np.argmax(np.abs(res.v[:, k])))
            entry = res.v[i, k]
            assert abs(entry.imag) < 1e-14 and entry.real >= 0

    def test_deterministic(self):
        gen = np.random.default_rng(11)
        a = random_complex(gen, 12, 12)
        r1, r2 = thin_svd(a, 4), thin_svd(a, 4)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.v, r2.v)
        assert np.array_equal(r1.sigma, r2.sigma)

    @pytest.mark.parametrize("rows, cols", [(8, 8), (10, 7), (4, 64)])
    def test_stack_factors_equal_each_matrix_alone(self, rows, cols):
        # a stack gathers each column's gauge anchor along the batch axis,
        # a single matrix by plain indexing: the bits must not differ
        gen = np.random.default_rng(5)
        stack = np.stack([random_complex(gen, rows, cols) for _ in range(6)])
        # v's first column has equal magnitudes, so the tie rule anchors it
        stack[2] = np.outer(random_complex(gen, rows, 1), np.exp(1j * gen.uniform(0, 6, cols)))
        res = thin_svd(stack, 3)
        for i, a in enumerate(stack):
            one = thin_svd(a, 3)
            for got, want in ((res.u[i], one.u), (res.sigma[i], one.sigma), (res.v[i], one.v)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [0, -1, 4])
    def test_m_out_of_range(self, m):
        with pytest.raises(DimensionError):
            thin_svd(np.eye(3), m)

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            thin_svd(a, 2)

    def test_failed_svd_raises_numpys_linalg_error(self, monkeypatch):
        # LAPACK essentially never fails on finite input; when it does, the
        # error a trial's batch reruns on passes through unchanged
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            thin_svd(np.eye(3), 2)


def full_svd_factors(a, m):
    """The leading ``m`` factors of ``np.linalg.svd``, gauge-fixed as
    thin_svd fixes them: its full-SVD route, written out."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, s, v = u[..., :m].copy(), s[..., :m].copy(), vh[..., :m, :].conj().swapaxes(-1, -2).copy()
    linalg._fix_gauge(u, v)
    return u, s, v


DRIVERS = linalg._gram_drivers()
needs_gram_drivers = pytest.mark.skipif(
    DRIVERS is None,
    reason="numpy's OpenBLAS exports no scipy_cblas_zherk64_ or scipy_LAPACKE_zheevr64_",
)


def recorded_gram(monkeypatch, fail_on=None):
    """Wrap the zherk and zheevr bindings so each zherk call records its
    input matrix and, where ``fail_on(h)`` holds for that input, the
    zheevr call after it reports info = 1 instead of calling LAPACK."""
    herk, heevr = DRIVERS
    inputs = []

    def recording_herk(*args):
        inputs.append(args[6].copy())
        herk(*args)

    def failing_heevr(*args):
        if fail_on is not None and fail_on(inputs[-1]):
            return 1
        return heevr(*args)

    monkeypatch.setattr(linalg, "_gram_drivers", lambda: (recording_herk, failing_heevr))
    return inputs


def spectrum(gen, sigma, n):
    """An n x n matrix with singular values ``sigma`` (descending) and
    random unitary singular vectors."""
    q_u, _ = np.linalg.qr(random_complex(gen, n, n))
    q_v, _ = np.linalg.qr(random_complex(gen, n, n))
    return (q_u * sigma) @ q_v.conj().T


# thin_svd at or above RANK_K_MIN computes only the leading m triplets,
# from the Gram matrix (zherk + zheevr)
@needs_gram_drivers
class TestRankKRoute:
    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param((32, 32), id="32"),
            pytest.param((64, 64), id="64"),
            pytest.param((128, 128), id="128"),
            pytest.param((256, 256), id="256"),
            pytest.param((96, 32), id="96x32"),
            pytest.param((64, 256), id="64x256"),
            pytest.param((256, 128), id="256x128"),
            pytest.param((128, 256), id="128x256"),
        ],
    )
    def test_agrees_with_full_svd(self, shape, monkeypatch):
        a = random_complex(np.random.default_rng(shape), *shape)
        inputs = recorded_gram(monkeypatch)
        res = thin_svd(a, 4)
        assert len(inputs) == 1 and np.array_equal(inputs[0], a)
        u, s, v = full_svd_factors(a, 4)
        np.testing.assert_allclose(res.sigma, s, rtol=1e-13, atol=0)
        assert np.max(np.abs(res.u - u)) <= 1e-12
        assert np.max(np.abs(res.v - v)) <= 1e-12
        for x in (res.u, res.sigma, res.v):
            assert x.flags.c_contiguous

    def test_route_starts_at_its_threshold(self, monkeypatch):
        gen = np.random.default_rng(9)
        inputs = recorded_gram(monkeypatch)
        below = random_complex(gen, linalg.RANK_K_MIN - 1, 2 * linalg.RANK_K_MIN)
        res = thin_svd(below, 4)
        assert inputs == []
        for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(below, 4)):
            assert got.tobytes() == want.tobytes()
        square = random_complex(gen, linalg.RANK_K_MIN, linalg.RANK_K_MIN + 3)
        thin_svd(square, linalg.RANK_K_MIN // linalg.RANK_K_RATIO)
        assert len(inputs) == 1
        # more triplets than that a side: the full SVD is cheaper
        thin_svd(square, linalg.RANK_K_MIN // linalg.RANK_K_RATIO + 1)
        assert len(inputs) == 1

    def test_stack_factors_equal_each_matrix_alone(self):
        gen = np.random.default_rng(12)
        stack = np.stack([random_complex(gen, 128, 128) for _ in range(3)]).reshape(3, 1, 128, 128)
        res = thin_svd(stack, 4)
        assert res.u.shape == (3, 1, 128, 4)
        for i in range(3):
            one = thin_svd(stack[i, 0], 4)
            for got, want in ((res.u[i, 0], one.u), (res.sigma[i, 0], one.sigma), (res.v[i, 0], one.v)):
                assert got.tobytes() == want.tobytes()

    def test_rank_deficient_draw_factors_and_is_refused(self, monkeypatch):
        gen = np.random.default_rng(3)
        h = random_complex(gen, 128, 3) @ random_complex(gen, 3, 128)
        # the Gram route is taken, sees lambda_4 <= GRAM_FLOOR lambda_1 and
        # hands the matrix to the full SVD
        inputs = recorded_gram(monkeypatch)
        res = thin_svd(h, 4)
        assert len(inputs) == 1
        for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(h, 4)):
            assert got.tobytes() == want.tobytes()
        chan = ChannelRealization(ChannelModel(RAYLEIGH, 128, 128), h=h[None])
        svd, ok = channel_svds(chan, 4)
        assert np.all(np.isfinite(svd.sigma)) and svd.sigma.shape == (1, 4)
        assert svd.sigma[0, 3] <= RANK_TOL * svd.sigma[0, 0]
        assert ok.tolist() == [False]
        # the three significant triplets still factor h's range
        u, s, v = svd.u[0, :, :3], svd.sigma[0, :3], svd.v[0, :, :3]
        assert np.linalg.norm(h - (u * s) @ v.conj().T) <= 1e-12 * np.linalg.norm(h)

    def test_ill_conditioned_draw_falls_back_and_is_kept(self, monkeypatch):
        # sigma_4 / sigma_1 past the Gram route's floor (a lambda ratio of
        # 1e-14 or 1.02e-12, at most 1e-8) but above channel.RANK_TOL, so the
        # full SVD factors it and the draw is kept; at 1.01e-6 the Gram
        # route's sigma_4 would be off by 1.1e-5 relative
        inputs = recorded_gram(monkeypatch)
        for sigma_4 in (1e-7, 1.01e-6):
            gen = np.random.default_rng(8)
            sigma = np.concatenate([[1.0, 0.9, 0.8, sigma_4], np.geomspace(1e-8, 1e-10, 124)])
            h = spectrum(gen, sigma, 128)
            inputs.clear()
            res = thin_svd(h, 4)
            assert len(inputs) == 1
            for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(h, 4)):
                assert got.tobytes() == want.tobytes(), sigma_4
            np.testing.assert_allclose(res.sigma, sigma[:4], rtol=1e-6)
            chan = ChannelRealization(ChannelModel(RAYLEIGH, 128, 128), h=h[None])
            assert channel_svds(chan, 4)[1].tolist() == [True]

    @pytest.mark.parametrize("n", [32, 64])
    def test_rank_deficient_small_draw_falls_back_bitwise(self, n, monkeypatch):
        gen = np.random.default_rng(n)
        h = random_complex(gen, n, 3) @ random_complex(gen, 3, n)
        inputs = recorded_gram(monkeypatch)
        res = thin_svd(h, 4)
        assert len(inputs) == 1
        for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(h, 4)):
            assert got.tobytes() == want.tobytes()
        chan = ChannelRealization(ChannelModel(RAYLEIGH, n, n), h=h[None])
        assert channel_svds(chan, 4)[1].tolist() == [False]

    @pytest.mark.parametrize("n", [32, 64])
    def test_ill_conditioned_small_draw_falls_back_and_is_kept(self, n, monkeypatch):
        inputs = recorded_gram(monkeypatch)
        for sigma_4 in (1e-7, 1.01e-6):
            gen = np.random.default_rng(n)
            sigma = np.concatenate([[1.0, 0.9, 0.8, sigma_4], np.geomspace(1e-8, 1e-10, n - 4)])
            h = spectrum(gen, sigma, n)
            inputs.clear()
            res = thin_svd(h, 4)
            assert len(inputs) == 1
            for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(h, 4)):
                assert got.tobytes() == want.tobytes(), sigma_4
            chan = ChannelRealization(ChannelModel(RAYLEIGH, n, n), h=h[None])
            assert channel_svds(chan, 4)[1].tolist() == [True]

    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (64, 32), (32, 128)], ids=str)
    def test_gram_anchors_are_exactly_real(self, shape, monkeypatch):
        # the rotation alone leaves each anchor an imaginary residue of
        # either sign; the route writes it as its magnitude.  Matrix 1 of
        # the stack has rank 3, so it falls back and keeps the full SVD's
        # rotated anchors, bitwise
        gen = np.random.default_rng(shape)
        rows, cols = shape
        stack = np.stack([random_complex(gen, rows, cols) for _ in range(6)])
        stack[1] = random_complex(gen, rows, 3) @ random_complex(gen, 3, cols)
        inputs = recorded_gram(monkeypatch)
        res = thin_svd(stack, 4)
        assert len(inputs) == 6
        mags = np.abs(res.v)
        tied = mags >= (1.0 - linalg.GAUGE_TIE) * mags.max(axis=-2, keepdims=True)
        first = np.argmax(tied, axis=-2)
        anchors = np.take_along_axis(res.v, first[:, None, :], axis=-2)[:, 0]
        gram = np.arange(6) != 1
        assert np.all(anchors[gram].imag == 0.0) and np.all(anchors[gram].real > 0.0)
        for got, want in zip((res.u[1], res.sigma[1], res.v[1]), full_svd_factors(stack[1], 4)):
            assert got.tobytes() == want.tobytes()

    # at small n the route's n-sized vectors and fixed costs are a large
    # share of one n x n buffer, so the bound is looser: a second n x n
    # temporary would still cross it
    @pytest.mark.parametrize("n", [32, 64])
    def test_allocates_one_gram_buffer_at_small_n(self, n):
        h = random_complex(np.random.default_rng(n), n, n)
        thin_svd(h, 1)
        tracemalloc.start()
        try:
            thin_svd(h, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * h.nbytes

    def test_missing_symbol_runs_the_full_svd(self, monkeypatch):
        lib = linalg._openblas()
        for present in (linalg._HERK_SYMBOL, linalg._HEEVR_SYMBOL):
            only = types.SimpleNamespace(**{present: getattr(lib, present)})
            monkeypatch.setattr(linalg, "_openblas", lambda: only)
            assert linalg._gram_drivers.__wrapped__() is None
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        assert linalg._gram_drivers.__wrapped__() is None
        monkeypatch.setattr(linalg, "_gram_drivers", lambda: None)
        gen = np.random.default_rng(4)
        stack = np.stack([random_complex(gen, 128, 128) for _ in range(2)])
        res = thin_svd(stack, 4)
        for got, want in zip((res.u, res.sigma, res.v), full_svd_factors(stack, 4)):
            assert got.tobytes() == want.tobytes()

    def test_failure_raises_numpys_linalg_error(self, monkeypatch):
        recorded_gram(monkeypatch, fail_on=lambda a: True)
        with pytest.raises(np.linalg.LinAlgError, match="zheevr"):
            thin_svd(np.eye(128), 4)

    def test_allocates_one_gram_buffer(self):
        # the route's one n x n temporary is the Gram matrix: forming it with
        # adjoint(h) @ h, or copying h column-major, would add more
        h = random_complex(np.random.default_rng(6), 512, 512)
        thin_svd(h, 4)
        tracemalloc.start()
        try:
            thin_svd(h, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * h.nbytes

    def test_failure_reruns_the_batch_one_trial_at_a_time(self, monkeypatch):
        cfg = ExperimentConfig(
            name="rank_k", channel=ChannelModel(RAYLEIGH, 128, 128), k=4, m=4,
            rho_db=20.0, scheme=Scheme("svd_phase"), trials=3, master_seed=5,
        )
        alone = [experiments.run_trials(cfg, [i])[0] for i in range(3)]
        bad = recorded_gram(monkeypatch)
        experiments.run_trials(cfg, [1])
        inputs = recorded_gram(monkeypatch, fail_on=lambda a: np.array_equal(a, bad[0]))
        calls = []
        real = experiments.run_trials
        monkeypatch.setattr(
            experiments, "run_trials", lambda c, idx: calls.append(list(idx)) or real(c, idx)
        )
        records = experiments.run_trials(cfg, [0, 1, 2])
        assert calls == [[0, 1, 2], [0], [1], [2]]
        # the stack stopped at its failing matrix; each rerun factored its own
        assert len(inputs) == 2 + 3
        assert records[1].degenerate and math.isnan(records[1].rate_bits)
        assert [repr(records[i]) for i in (0, 2)] == [repr(alone[i]) for i in (0, 2)]
        assert not alone[1].degenerate


class TestErf:
    """The properties closed_form and normal_cdf rely on in math.erf,
    exact odd symmetry included."""

    def test_zero(self):
        assert math.erf(0.0) == 0.0

    def test_one_vs_series_oracle(self):
        assert math.erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-7)
        assert math.erf(1.0) == pytest.approx(erf_series(1.0), abs=1e-12)

    def test_saturation(self):
        assert math.erf(6.0) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 2.5, 3.5, 4.0])
    def test_against_series(self, x):
        assert math.erf(x) == pytest.approx(erf_series(x), abs=1e-12)

    @given(st.floats(-6, 6, allow_nan=False))
    def test_odd_exact(self, x):
        assert math.erf(-x) == -math.erf(x)

    def test_monotone_and_bounded(self):
        grid = np.linspace(-6, 6, 10_000)
        vals = np.array([math.erf(float(x)) for x in grid])
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.abs(vals) <= 1.0)


class TestComplexGaussian:
    def test_mean_square_magnitude(self):
        z = sample_complex_gaussian(123, 0, 100_000)
        assert 0.99 <= np.mean(np.abs(z) ** 2) <= 1.01

    def test_rayleigh_magnitude_mean(self):
        z = sample_complex_gaussian(123, 1, 100_000)
        assert np.mean(np.abs(z)) == pytest.approx(HALF_SQRT_PI, rel=0.01)

    def test_determinism(self):
        a = sample_complex_gaussian(9, 4, 1000)
        b = sample_complex_gaussian(9, 4, 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_complex_gaussian(9, 4, 1000)
        b = sample_complex_gaussian(9, 5, 1000)
        assert not np.array_equal(a, b)

    def test_real_part_ks(self):
        z = sample_complex_gaussian(123, 2, 100_000)
        d = ks_statistic(z.real, normal_cdf)
        assert d <= 0.01

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(1, 0, 0)

    def test_platform_stable_first_draws(self):
        # Philox keyed streams are fixed by (seed, stream); pin the first
        # values so accidental generator swaps are caught.
        z = sample_complex_gaussian(0, 0, 2)
        assert z.tolist() == [
            0.11263890422527838 - 1.2545407341622272j,
            0.9379855470040609 + 0.8519286831952083j,
        ]
        assert z.tolist() != sample_complex_gaussian(1, 0, 2).tolist()


class TestKsStatistic:
    def test_quantile_samples_near_zero(self):
        n = 100
        q = np.arange(1, n + 1) / (n + 1)
        samples = np.sqrt(-np.log(1 - q))  # Rayleigh(1/sqrt(2)) quantiles
        d = ks_statistic(samples, rayleigh_cdf)
        assert d <= 1 / (n + 1) + 1 / n

    def test_degenerate_mass(self):
        assert ks_statistic(np.zeros(50), rayleigh_cdf) == 1.0

    def test_rayleigh_draws(self):
        gen = fresh_generator(55, 0)
        u = gen.uniform(0, 1, 10_000)
        samples = np.sqrt(-np.log(1 - u))
        assert ks_statistic(samples, rayleigh_cdf) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], rayleigh_cdf)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=50))
    @settings(deadline=None)
    def test_range(self, xs):
        d = ks_statistic(np.array(xs), normal_cdf)
        assert 0.0 <= d <= 1.0
