"""Channel models: steering vectors, Rayleigh and geometric draws."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import channel
from beamsim import (
    GEOMETRIC,
    RAYLEIGH,
    ChannelModel,
    ChannelRealization,
    ExperimentConfig,
    Scheme,
    draw_channels,
    run_experiment,
    sample_complex_gaussian,
    steering_vector,
    thin_svd,
)
from beamsim.channel import channel_svds, draw_paths, steering_block
from beamsim.errors import DimensionError
from beamsim.linalg import factored_svd

from oracles import fresh_gaussian, fresh_generator, fresh_paths, fresh_rayleigh_h


def draw(model, seed, stream):
    """The draw of ``model`` on the stream ``(seed, stream)``, as a stack of one."""
    return draw_channels(model, seed, [stream])


def svd_of(chan, m):
    """The rank-m factors of a stack of one, which must have rank m."""
    svd, ok = channel_svds(chan, m)
    assert ok.tolist() == [True]
    return svd[0]


class TestSteeringVector:
    def test_broadside(self):
        np.testing.assert_allclose(steering_vector(math.pi / 2, 4), np.full(4, 0.5), atol=1e-12)

    def test_endfire(self):
        # cos(0) = 1 with half-wavelength spacing alternates sign
        expected = np.array([1, -1, 1, -1]) / 2
        np.testing.assert_allclose(steering_vector(0.0, 4), expected, atol=1e-12)

    @given(
        st.floats(0.0, math.pi, allow_nan=False),
        st.integers(1, 300),
        st.floats(0.1, 2.0),
    )
    @settings(deadline=None)
    def test_unit_norm(self, phi, n, spacing):
        v = steering_vector(phi, n, spacing)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("phi", [-0.1, math.pi + 0.1, 7.0])
    def test_domain(self, phi):
        with pytest.raises(ValueError):
            steering_vector(phi, 4)


def steering_columns(angles, n, spacing=0.5):
    return np.column_stack([steering_vector(p, n, spacing) for p in angles])


class TestSteeringBlock:
    @pytest.mark.parametrize("n", [1, 16, 128, 512])
    @pytest.mark.parametrize("spacing", [0.5, 0.7])
    def test_bitwise_the_steering_vectors(self, n, spacing):
        # tobytes compares signs of zero too
        gen = np.random.default_rng(n)
        phi = np.array([0.0, math.pi / 2, math.pi, *gen.uniform(0.0, math.pi, 3)])
        want = steering_columns(phi, n, spacing)
        assert steering_block(phi, n, spacing).tobytes() == want.tobytes()
        stack = np.stack([phi, gen.uniform(0.0, math.pi, 6), phi[::-1]])
        block = steering_block(stack, n, spacing)
        assert block.shape == (3, n, 6)
        for got, angles in zip(block, stack):
            assert got.tobytes() == steering_columns(angles, n, spacing).tobytes()


class TestChannelModel:
    def test_geometric_needs_paths(self):
        with pytest.raises(ValueError):
            ChannelModel(GEOMETRIC, 8, 8)

    def test_rayleigh_rejects_paths(self):
        with pytest.raises(ValueError):
            ChannelModel(RAYLEIGH, 8, 8, l_paths=3)

    def test_path_bound(self):
        with pytest.raises(ValueError):
            ChannelModel(GEOMETRIC, 4, 8, l_paths=5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelModel("rician", 4, 4)

    @pytest.mark.parametrize("kind,l_paths", [(RAYLEIGH, None), (GEOMETRIC, 5)])
    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 1e308, 0.0, -0.5])
    def test_spacing_bounds_the_steering_phase(self, kind, l_paths, spacing):
        # 2 pi d max(n_t, n_r) must be finite: at n = 16 it overflows at 1e308
        with pytest.raises(ValueError, match="spacing_over_wavelength"):
            ChannelModel(kind, 16, 16, l_paths=l_paths, spacing_over_wavelength=spacing)

    def test_largest_accepted_spacing_runs(self):
        model = ChannelModel(GEOMETRIC, 16, 16, l_paths=5, spacing_over_wavelength=1e306)
        a_r, _, a_t = draw(model, 3, 0).factors
        assert np.isfinite(a_r).all() and np.isfinite(a_t).all()
        config = ExperimentConfig("wide", model, 4, 4, 34.0, Scheme("svd_phase"), trials=4)
        summary = run_experiment(config).summary
        assert summary.excluded_count == 0 and summary.trial_count == 4


class TestRayleighDraws:
    def test_entry_energy(self):
        # 64 trials x 32 x 32 entries: se of the mean ~0.004, band is >5 sigma
        model = ChannelModel(RAYLEIGH, 32, 32)
        pooled = draw_channels(model, 5, range(64)).h
        assert 0.98 <= float(np.mean(np.abs(pooled) ** 2)) <= 1.02

    def test_shape_and_no_paths(self):
        chan = draw(ChannelModel(RAYLEIGH, 6, 3), 5, 0)
        assert chan.h.shape == (1, 3, 6)
        assert chan.factors is None and chan.beta is None

    def test_determinism(self):
        model = ChannelModel(RAYLEIGH, 16, 16)
        a = draw(model, 5, 9).h
        b = draw(model, 5, 9).h
        assert np.array_equal(a, b)


class TestGeometricDraws:
    def test_single_path_rank_one(self):
        chan = draw(ChannelModel(GEOMETRIC, 16, 16, l_paths=1), 5, 1)
        s = np.linalg.svd(chan.h[0], compute_uv=False)
        assert s[1] <= 1e-8 * s[0]

    def test_energy_normalization(self):
        model = ChannelModel(GEOMETRIC, 64, 64, l_paths=5)
        stack = draw_channels(model, 6, range(500))
        vals = [np.linalg.norm(h) ** 2 / 64**2 for h in stack.h]
        assert 0.9 <= float(np.mean(vals)) <= 1.1

    def test_paths_sorted_and_in_domain(self):
        beta, phi_t, phi_r = draw_paths(ChannelModel(GEOMETRIC, 16, 16, l_paths=6), 6, 3)
        mags = np.abs(beta).tolist()
        assert mags == sorted(mags, reverse=True)
        assert np.all((0.0 <= phi_t) & (phi_t <= math.pi) & (0.0 <= phi_r) & (phi_r <= math.pi))

    def test_matrix_matches_path_sum(self):
        model = ChannelModel(GEOMETRIC, 8, 12, l_paths=3)
        chan = draw(model, 6, 4)
        h = np.zeros((12, 8), dtype=complex)
        for beta, phi_t, phi_r in zip(*draw_paths(model, 6, 4)):
            a_t = steering_vector(phi_t, 8)
            a_r = steering_vector(phi_r, 12)
            h += beta * np.outer(a_r, a_t.conj())
        h *= math.sqrt(8 * 12 / 3)
        np.testing.assert_allclose(chan.h[0], h, atol=1e-12)

    def test_determinism(self):
        model = ChannelModel(GEOMETRIC, 16, 16, l_paths=4)
        a = draw(model, 6, 9)
        b = draw(model, 6, 9)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.beta, b.beta)


def eager_geometric_h(model, master_seed, stream):
    """The dense matrix as a draw formed it eagerly before ``h`` became
    lazy: same stream, same operands, same order."""
    gen = fresh_generator(master_seed, stream)
    l = model.l_paths
    z = gen.standard_normal(2 * l)
    beta = (z[0::2] + 1j * z[1::2]) / math.sqrt(2.0)
    phi_t = gen.uniform(0.0, math.pi, l)
    phi_r = gen.uniform(0.0, math.pi, l)
    order = np.argsort(-np.abs(beta), kind="stable")
    beta, phi_t, phi_r = beta[order], phi_t[order], phi_r[order]
    a_t = np.column_stack([steering_vector(p, model.n_t) for p in phi_t])
    a_r = np.column_stack([steering_vector(p, model.n_r) for p in phi_r])
    scale = math.sqrt(model.n_t * model.n_r / l)
    return scale * ((a_r * beta) @ a_t.conj().T)


class TestLazyDense:
    @pytest.mark.parametrize("n_t, n_r, l", [(8, 12, 3), (64, 64, 5), (256, 128, 1)])
    def test_formed_on_first_read_bitwise_as_eager(self, n_t, n_r, l):
        model = ChannelModel(GEOMETRIC, n_t, n_r, l_paths=l)
        for t in range(5):
            chan = draw(model, 11, t)
            assert "h" not in vars(chan)
            h = chan.h
            assert np.array_equal(h[0], eager_geometric_h(model, 11, t))
            assert chan.h is h and chan.shape == h.shape[1:] == (n_r, n_t)

    def test_rayleigh_draw_carries_its_h(self):
        chan = draw(ChannelModel(RAYLEIGH, 6, 3), 5, 0)
        assert vars(chan)["h"].shape[1:] == chan.shape == (3, 6)

    def test_needs_h_or_paths_of_its_shape(self):
        with pytest.raises(ValueError):
            ChannelRealization(model=ChannelModel(RAYLEIGH, 4, 4))
        with pytest.raises(DimensionError):
            ChannelRealization(h=np.ones((4, 3)), model=ChannelModel(RAYLEIGH, 4, 4))

    def test_rayleigh_project_is_the_dense_product_bitwise(self):
        chan = draw(ChannelModel(RAYLEIGH, 24, 20), 8, 3)[0]
        gen = np.random.default_rng(3)
        w = gen.standard_normal((20, 4)) + 1j * gen.standard_normal((20, 4))
        f = gen.standard_normal((24, 4)) + 1j * gen.standard_normal((24, 4))
        assert np.array_equal(chan.project(w, f), w.conj().T @ chan.h @ f)

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_geometric_project_matches_formed_h(self, l):
        chan = draw(ChannelModel(GEOMETRIC, 48, 32, l_paths=l), 8, l)[0]
        gen = np.random.default_rng(l)
        w = gen.standard_normal((32, 3)) + 1j * gen.standard_normal((32, 3))
        f = gen.standard_normal((48, 3)) + 1j * gen.standard_normal((48, 3))
        e = chan.project(w, f)
        assert "h" not in vars(chan)
        ref = w.conj().T @ chan.h @ f
        assert np.max(np.abs(e - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_qr_per_steering_block_per_factorization(self, monkeypatch):
        chan = draw(ChannelModel(GEOMETRIC, 32, 32, l_paths=4), 8, 5)
        real_qr, blocks = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a: blocks.append(a) or real_qr(a))
        # each call factors the draw's own blocks, as a stack of one
        first = svd_of(chan, 2)
        assert len(blocks) == 2
        assert np.shares_memory(blocks[0], chan.factors[0]) and blocks[0].shape == (1, 32, 4)
        assert np.shares_memory(blocks[1], chan.factors[2]) and blocks[1].shape == (1, 32, 4)
        again = svd_of(chan, 4)
        assert len(blocks) == 4
        assert np.shares_memory(blocks[2], chan.factors[0])
        assert np.shares_memory(blocks[3], chan.factors[2])
        assert np.array_equal(again.sigma[:2], first.sigma)

    def test_given_h_is_the_h_read(self):
        h = np.ones((3, 2), dtype=complex)
        assert ChannelRealization(ChannelModel(RAYLEIGH, 2, 3), h=h).h is h

    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    @pytest.mark.parametrize("name", ["model", "h"])
    def test_realization_is_frozen(self, kind, name):
        model = ChannelModel(kind, 8, 8, l_paths=3 if kind == GEOMETRIC else None)
        chan = draw(model, 8, 6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chan, name, None)


def paths_channel(n, phi_t, phi_r, beta):
    """Geometric realization with chosen path angles and gains, as a stack of one."""
    model = ChannelModel(GEOMETRIC, n, n, l_paths=len(beta))
    a_t = np.column_stack([steering_vector(p, n) for p in phi_t])
    a_r = np.column_stack([steering_vector(p, n) for p in phi_r])
    g = math.sqrt(n * n / len(beta)) * np.asarray(beta, dtype=complex)
    factors = (a_r[None], g[None], a_t[None])
    return ChannelRealization(h=((a_r * g) @ a_t.conj().T)[None], model=model, factors=factors)


def assert_same_svd(chan, m):
    """The path-structured factors equal the dense ones: sigma to 1e-12 of
    sigma_1 (the accuracy a backward-stable SVD guarantees for every
    singular value), each singular vector aligned to 1 - 1e-12, and, with
    the gauge fixed, the factors entrywise."""
    dense = thin_svd(chan.h[0], m)
    fast = svd_of(chan, m)
    assert fast.u.shape == dense.u.shape and fast.v.shape == dense.v.shape
    assert np.all(np.abs(fast.sigma - dense.sigma) <= 1e-12 * dense.sigma[0])
    for a, b in ((dense.u, fast.u), (dense.v, fast.v)):
        assert np.all(np.abs(np.sum(a.conj() * b, axis=0)) >= 1.0 - 1e-12)
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)
    return fast


class TestChannelSvd:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_matches_dense_svd(self, n, l):
        model = ChannelModel(GEOMETRIC, n, n, l_paths=l)
        for t in range(3):
            chan = draw(model, 8, 100 * n + 10 * l + t)
            for m in range(1, l + 1):
                assert_same_svd(chan, m)

    def test_carries_path_factors(self):
        model = ChannelModel(GEOMETRIC, 8, 12, l_paths=3)
        chan = draw(model, 6, 4)[0]
        a_r, g, a_t = chan.factors
        assert a_r.shape == (12, 3) and g.shape == (3,) and a_t.shape == (8, 3)
        np.testing.assert_allclose(g, math.sqrt(8 * 12 / 3) * draw_paths(model, 6, 4)[0])
        np.testing.assert_allclose(chan.h, (a_r * g) @ a_t.conj().T, atol=1e-12)
        assert draw(ChannelModel(RAYLEIGH, 8, 8), 6, 4).factors is None

    def test_single_path_anchors_entry_zero(self):
        chan = draw(ChannelModel(GEOMETRIC, 64, 64, l_paths=1), 8, 1)
        for res in (assert_same_svd(chan, 1), thin_svd(chan.h[0], 1)):
            assert res.v[0, 0].imag == 0.0 and res.v[0, 0].real > 0.0

    def test_shared_angle_drops_rank_and_still_agrees(self):
        # paths 0 and 1 share both angles, so three paths give rank 2
        chan = paths_channel(32, [0.7, 0.7, 2.1], [1.2, 1.2, 0.4], [1.0, 0.5j, 0.3])
        s = np.linalg.svd(chan.h[0], compute_uv=False)
        assert s[2] <= 1e-12 * s[0] < s[1]
        for m in (1, 2):
            assert_same_svd(chan, m)
        assert channel_svds(chan, 3)[1].tolist() == [False]

    def test_more_streams_than_paths_raise_without_forming_h(self):
        # refused by the rank mask, from the path count alone
        chan = draw(ChannelModel(GEOMETRIC, 16, 16, l_paths=2), 8, 2)
        svd, ok = channel_svds(chan, 3)
        assert ok.tolist() == [False] and not svd.sigma.any()
        assert "h" not in vars(chan)

    @pytest.mark.parametrize("m", [0, 17])
    def test_out_of_range_m_is_a_dimension_error(self, m):
        chan = draw(ChannelModel(GEOMETRIC, 16, 16, l_paths=2), 8, 2)
        with pytest.raises(DimensionError, match=rf"m={m} outside 1\.\.min\(16, 16\)"):
            channel_svds(chan, m)
        assert "h" not in vars(chan)

    @pytest.mark.parametrize("name", ["u", "sigma", "v"])
    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_shared_factors_are_read_only(self, kind, name):
        model = ChannelModel(kind, 16, 16, l_paths=5 if kind == GEOMETRIC else None)
        stack = draw_channels(model, 8, range(3))
        a = getattr(channel_svds(stack, 2)[0], name)
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
        assert np.array_equal(a, before)

    def test_rayleigh_is_bitwise_dense(self):
        chan = draw(ChannelModel(RAYLEIGH, 24, 20), 8, 3)
        dense, res = thin_svd(chan.h[0], 4), svd_of(chan, 4)
        for name in ("u", "sigma", "v"):
            assert np.array_equal(getattr(res, name), getattr(dense, name))


def path_stack(model, count=6, seed=9):
    return draw_channels(model, seed, range(count))


class TestStackedDraws:
    @pytest.mark.parametrize("n_t, n_r, l", [(16, 16, 5), (64, 32, 3), (8, 8, 1)])
    def test_each_draw_bitwise_its_own(self, n_t, n_r, l):
        model = ChannelModel(GEOMETRIC, n_t, n_r, l_paths=l)
        stack = path_stack(model)
        assert [a.shape for a in stack.factors] == [(6, n_r, l), (6, l), (6, n_t, l)]
        for t in range(6):
            one = draw(model, 9, t)[0]
            for got, want in zip(stack.factors, one.factors):
                assert got[t].tobytes() == want.tobytes()

    # n_t x n_r and L: the multiuser shapes (n_r users) and a square one
    @pytest.mark.parametrize(
        "n_t, n_r, l", [(16, 5, 5), (64, 4, 4), (64, 4, 2), (128, 8, 5), (16, 4, 3)]
    )
    def test_stacked_h_is_bitwise_each_draws_own(self, n_t, n_r, l):
        model = ChannelModel(GEOMETRIC, n_t, n_r, l_paths=l)
        for count in (1, 3, 32):
            stack = path_stack(model, count=count, seed=count)
            assert stack.h.shape == (count, n_r, n_t)
            for t in range(count):
                one = draw(model, count, t)
                assert stack.h[t].tobytes() == one.h[0].tobytes()

    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_draw_channels_picks_the_stack_of_its_kind(self, kind):
        model = ChannelModel(kind, 12, 8, l_paths=3 if kind == GEOMETRIC else None)
        stack = draw_channels(model, 9, range(4))
        if kind == RAYLEIGH:
            assert stack.factors is None
            assert stack.h.tobytes() == channel.draw_rayleigh_stack(model, 9, range(4)).h.tobytes()
        else:
            assert "h" not in vars(stack)
            want = channel.draw_path_stack(model, 9, range(4)).factors
            assert as_bytes(stack.factors) == as_bytes(want)

    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_non_consecutive_streams_draw_their_own(self, kind):
        # stream ids out of order and far apart, as a check that draws
        # random ids or skips rejected ones asks for
        model = ChannelModel(kind, 12, 8, l_paths=3 if kind == GEOMETRIC else None)
        streams = [7, 3, (1 << 30) - 1, 12]
        stack = draw_channels(model, 9, streams)
        for row, s in enumerate(streams):
            if kind == RAYLEIGH:
                want = fresh_rayleigh_h(model, 9, s)
                assert stack.h[row].tobytes() == want.tobytes()
            else:
                want = channel._path_factors(model, *fresh_paths(model, 9, s))
                assert as_bytes(f[row] for f in stack.factors) == as_bytes(want)
            assert stack[row].h.tobytes() == draw(model, 9, s).h[0].tobytes()

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_factors_equal_each_draw_alone(self, m):
        model = ChannelModel(GEOMETRIC, 32, 24, l_paths=5)
        stack = path_stack(model)
        res = factored_svd(*stack.factors, m)
        for t in range(6):
            one = factored_svd(*draw(model, 9, t)[0].factors, m)
            for got, want in ((res.u[t], one.u), (res.sigma[t], one.sigma), (res.v[t], one.v)):
                assert got.tobytes() == want.tobytes()

    def test_rank_mask_and_refusal_follow_channel_svd(self, monkeypatch):
        # draw 2's second path coincides with its first, so its rank is 4
        model = ChannelModel(GEOMETRIC, 16, 16, l_paths=5)
        real = draw_paths

        def coincident(model, master_seed, stream):
            beta, phi_t, phi_r = real(model, master_seed, stream)
            if stream == 2:
                phi_t[1], phi_r[1] = phi_t[0], phi_r[0]
            return beta, phi_t, phi_r

        monkeypatch.setattr(channel, "draw_paths", coincident)
        stack = path_stack(model)
        _, ok = channel_svds(stack, 5)
        assert ok.tolist() == [True, True, False, True, True, True]
        # each draw's mask alone is its mask in the stack
        alone = [channel_svds(draw(model, 9, t), 5)[1][0] for t in range(6)]
        assert alone == ok.tolist()
        # more streams than paths: no draw passes, and no SVD runs
        svds = []
        monkeypatch.setattr(channel, "factored_svd", lambda *a: svds.append(a))
        _, ok = channel_svds(stack, 6)
        assert ok.tolist() == [False] * 6 and svds == []
        assert channel_svds(draw(model, 9, 2), 6)[1].tolist() == [False]

    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_projection_and_kept_rows_equal_each_draw(self, kind):
        model = ChannelModel(kind, 24, 20, l_paths=4 if kind == GEOMETRIC else None)
        draws = [draw(model, 9, t)[0] for t in range(6)]
        if kind == GEOMETRIC:
            stack = path_stack(model)
        else:
            stack = ChannelRealization(model, h=np.stack([c.h for c in draws]))
        gen = np.random.default_rng(2)
        w = gen.standard_normal((6, 20, 3)) + 1j * gen.standard_normal((6, 20, 3))
        f = gen.standard_normal((6, 24, 3)) + 1j * gen.standard_normal((6, 24, 3))
        e = stack.project(w, f)
        for t, chan in enumerate(draws):
            assert e[t].tobytes() == chan.project(w[t], f[t]).tobytes()
        keep = np.array([True, False, True, True, False, True])
        kept = stack[keep]
        assert kept.project(w[keep], f[keep]).tobytes() == e[keep].tobytes()


def as_bytes(arrays):
    return [a.tobytes() for a in arrays]


class TestRestartedStreams:
    """Draws read one restarted generator per thread; each is bitwise the
    draw of a fresh generator on its stream."""

    RAY = ChannelModel(RAYLEIGH, 8, 6)
    GEO = ChannelModel(GEOMETRIC, 16, 12, l_paths=5)

    def test_each_rayleigh_draw_of_a_stack_is_its_streams(self):
        stack = channel.draw_rayleigh_stack(self.RAY, 31, range(40))
        assert stack.h.shape == (40, 6, 8)
        for t, row in enumerate(stack.h):
            assert row.tobytes() == fresh_rayleigh_h(self.RAY, 31, t).tobytes()
            assert row.tobytes() == draw(self.RAY, 31, t).h[0].tobytes()

    def test_path_draws_and_samples_are_their_streams(self):
        for t in range(20):
            assert as_bytes(draw_paths(self.GEO, 31, t)) == as_bytes(fresh_paths(self.GEO, 31, t))
        z = sample_complex_gaussian(31, 3, 50)
        assert z.tobytes() == fresh_gaussian(fresh_generator(31, 3), 50).tobytes()

    def test_a_public_generator_between_draws_changes_nothing(self):
        # draws interleaved with a caller's own generator's reads: neither moves
        public, alone = fresh_generator(5, 0), fresh_generator(5, 0)
        for t in range(10):
            assert public.standard_normal(3).tobytes() == alone.standard_normal(3).tobytes()
            h = draw(self.RAY, 31, t).h[0]
            assert public.uniform() == alone.uniform()
            paths = draw_paths(self.GEO, 31, t)
            assert h.tobytes() == fresh_rayleigh_h(self.RAY, 31, t).tobytes()
            assert as_bytes(paths) == as_bytes(fresh_paths(self.GEO, 31, t))

    @pytest.mark.parametrize("kind", [RAYLEIGH, GEOMETRIC])
    def test_seed_and_stream_are_keyed_mod_2_64(self, kind):
        # a negative seed (the CLI takes one) names its residue's stream
        model = self.RAY if kind == RAYLEIGH else self.GEO
        stacks = [draw_channels(model, -1, [2**64 + 3]), draw_channels(model, 2**64 - 1, [3])]
        if kind == RAYLEIGH:
            want = [fresh_rayleigh_h(model, 2**64 - 1, 3).tobytes()]
            got = [[stack.h[0].tobytes()] for stack in stacks]
        else:
            beta, phi_t, phi_r = fresh_paths(model, 2**64 - 1, 3)
            want = as_bytes(channel._path_factors(model, beta, phi_t, phi_r)) + [beta.tobytes()]
            got = [as_bytes(f[0] for f in (*stack.factors, stack.beta)) for stack in stacks]
        assert got == [want, want]

    def test_draws_from_two_threads_are_their_streams(self):
        barrier = threading.Barrier(2, timeout=60.0)
        wrong = []

        def draw_many(seed):
            barrier.wait()
            for t in range(200):
                h = channel.draw_rayleigh_stack(self.RAY, seed, [t]).h[0]
                if h.tobytes() != fresh_rayleigh_h(self.RAY, seed, t).tobytes():
                    wrong.append(("rayleigh", seed, t))
                paths = draw_paths(self.GEO, seed, t)
                if as_bytes(paths) != as_bytes(fresh_paths(self.GEO, seed, t)):
                    wrong.append(("paths", seed, t))

        threads = [threading.Thread(target=draw_many, args=(seed,)) for seed in (40, 41)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
