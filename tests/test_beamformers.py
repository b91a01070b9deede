"""Beamformer constructions: phase-only, paired, mixed, quantized, selection, ZF."""

import math
from dataclasses import replace

import numpy as np
import pytest

from beamsim import (
    ChannelModel,
    DimensionError,
    GEOMETRIC,
    PhaseResolution,
    RAYLEIGH,
    SeededRng,
    SelectionPolicy,
    capacity_p2p,
    draw_channels,
    thin_svd,
    waterfill,
)
from beamsim import beamformers
from beamsim.beamformers import (
    digital_designs,
    mixed_designs,
    mu_zf_digital_designs,
    mu_zf_hybrid_designs,
    quantized_designs,
    selection_designs,
)
from beamsim.channel import ChannelRealization, channel_svds
from beamsim.rates import mu_streams, p2p_streams

RHO = 10.0**3.4


def draws(model, seed, streams):
    return draw_channels(model, [SeededRng(seed, s) for s in streams])


def rayleigh(n, seed, stream=0):
    """One Rayleigh n x n draw, as a stack of one."""
    return draws(ChannelModel(RAYLEIGH, n, n), seed, [stream])


def explicit(h):
    """The stack of the given channel matrices (a leading axis over them)."""
    h = np.asarray(h, dtype=complex)
    return ChannelRealization(ChannelModel(RAYLEIGH, h.shape[-1], h.shape[-2]), h=h)


def factors(chan, k):
    """The rank-k factors of a stack, every draw of which must have rank k."""
    svd, ok = channel_svds(chan, k)
    assert ok.all()
    return svd


def kept(made):
    """A builder's designs, which must keep every draw of its stack."""
    bf, ok = made
    assert ok.all()
    return bf


def one(made):
    """The design of a stack of one, which the builder must keep."""
    return kept(made)[0]


def rate(chan, bf, rho=RHO):
    """The log-det sum rate of the design ``bf`` over the stack of one ``chan``."""
    per, ok = p2p_streams(chan, bf[None], rho)
    assert ok.tolist() == [True]
    return float(per[0].sum())


def design_bytes(bf):
    arrays = (bf.f_rf, bf.f_b, bf.power, bf.w_rf, bf.w_b)
    return [None if a is None else a.tobytes() for a in arrays]


def assert_kept_draws_bitwise_alone(chan, made, build):
    """Each design of ``made = (designs, mask)`` over the stack ``chan`` is
    bitwise the design ``build`` gives its draw as a stack of one."""
    bf, ok = made
    for row, t in enumerate(np.flatnonzero(ok)):
        alone, alone_ok = build(chan[[t]])
        assert alone_ok.tolist() == [True]
        assert design_bytes(bf[row]) == design_bytes(alone[0])


def assert_invariants(bf, unit_modulus=True):
    if unit_modulus:
        active = bf.f_rf != 0
        assert np.all(np.abs(np.abs(bf.f_rf[active]) - 1.0) <= 1e-12)
        assert np.all(bf.f_rf[~active] == 0.0)
    assert np.all(bf.power >= 0.0)
    assert bf.power.sum() <= 1.0 + 1e-12
    f = bf.precoder()
    k = f.shape[1]
    recomputed = float(np.trace(f.conj().T @ f).real) / k
    assert abs(recomputed - bf.gamma_t) <= 1e-10 * max(1.0, abs(bf.gamma_t))
    if bf.w_rf is not None:
        w = bf.combiner()
        recomputed_r = float(np.trace(w.conj().T @ w).real) / k
        assert abs(recomputed_r - bf.gamma_r) <= 1e-10 * max(1.0, abs(bf.gamma_r))


class TestDigitalSvd:
    def test_rank1_geometric_uses_dominant_direction(self):
        chan = draws(ChannelModel(GEOMETRIC, 16, 16, l_paths=1), 4, [0])
        bf = one(digital_designs(chan, factors(chan, 1), RHO))
        v = thin_svd(chan.h[0], 1).v
        np.testing.assert_allclose(bf.precoder(), v, atol=1e-12)

    def test_gamma_is_one(self):
        chan = rayleigh(16, 4, 1)
        bf = one(digital_designs(chan, factors(chan, 4), RHO))
        assert bf.gamma_t == pytest.approx(1.0, abs=1e-12)
        assert bf.gamma_r == pytest.approx(1.0, abs=1e-12)
        assert_invariants(bf, unit_modulus=False)

    def test_rank_error_beyond_geometry(self):
        # two paths give rank 2: three streams are refused by the rank mask
        chan = draws(ChannelModel(GEOMETRIC, 16, 16, l_paths=2), 4, [1, 2])
        _, ok = channel_svds(chan, 3)
        assert ok.tolist() == [False, False]


class TestSvdPhase:
    def test_positive_real_column_gives_ones(self):
        chan = explicit([np.diag([3.0, 2.0, 1.0])])
        bf = one(mixed_designs(chan, factors(chan, 2), 2, RHO))
        np.testing.assert_allclose(bf.f_rf, np.ones((3, 2)), atol=1e-12)

    def test_structure(self):
        chan = rayleigh(16, 4, 2)
        bf = one(mixed_designs(chan, factors(chan, 4), 4, RHO))
        assert bf.f_rf.shape == (16, 4)
        np.testing.assert_allclose(bf.f_b, np.eye(4), atol=0)
        assert bf.gamma_t == pytest.approx(16.0, rel=1e-12)
        assert bf.gamma_r == pytest.approx(16.0, rel=1e-12)
        assert_invariants(bf)

    def test_phase_matching_beats_random_candidates(self):
        chan = rayleigh(24, 4, 3)
        svd = thin_svd(chan.h[0], 3)
        f_rf = one(mixed_designs(chan, factors(chan, 3), 3, RHO)).f_rf
        gen = np.random.default_rng(0)
        for k in range(3):
            v = svd.v[:, k]
            best = abs(np.vdot(v, f_rf[:, k]))
            cands = np.exp(1j * gen.uniform(0, 2 * math.pi, (1000, 24)))
            assert np.all(best >= np.abs(cands.conj() @ v) - 1e-12)

    def test_gauge_invariance_of_rate(self):
        chan = rayleigh(20, 4, 4)
        base = rate(chan, one(mixed_designs(chan, factors(chan, 3), 3, RHO)))
        # rotating each singular-vector column by a unit phase shifts every
        # shifter by a stream-constant phase and leaves the rate unchanged
        svd = thin_svd(chan.h, 3)
        gen = np.random.default_rng(1)
        phases = np.exp(1j * gen.uniform(0, 2 * math.pi, 3))
        rot = replace(svd, u=svd.u * phases, v=svd.v * phases)
        bf = one(mixed_designs(chan, rot, 3, RHO))
        assert rate(chan, bf) == pytest.approx(base, abs=1e-9)


class TestDoubleRf:
    def test_unit_magnitude_entry_collapses_pair(self):
        chan = explicit([[[2.0 * np.exp(0.7j)]]])
        bf = one(mixed_designs(chan, factors(chan, 1), 2, RHO))
        # |V| = 1 so both shifters carry the same phase and the pair
        # reproduces the entry exactly
        assert bf.f_rf[0, 0] == pytest.approx(bf.f_rf[0, 1], abs=1e-12)
        v = thin_svd(chan.h[0], 1).v
        np.testing.assert_allclose(bf.precoder(), v, atol=1e-12)

    def test_exact_factorization(self):
        chan = rayleigh(16, 5, 0)
        bf = one(mixed_designs(chan, factors(chan, 2), 4, RHO))
        v = thin_svd(chan.h[0], 2).v
        assert np.linalg.norm(bf.precoder() - v) <= 1e-10
        assert bf.gamma_t == pytest.approx(1.0, rel=1e-12)
        assert_invariants(bf)

    def test_rate_equals_digital(self):
        chan = rayleigh(16, 5, 1)
        svd = factors(chan, 4)
        r_dig = rate(chan, one(digital_designs(chan, svd, RHO)))
        r_dbl = rate(chan, one(mixed_designs(chan, svd, 8, RHO)))
        assert r_dbl == pytest.approx(r_dig, abs=1e-9)


class TestMixed:
    def test_block_structure(self):
        chan = rayleigh(16, 5, 4)
        bf = one(mixed_designs(chan, factors(chan, 3), 5, RHO))
        assert bf.f_rf.shape == (16, 5)
        assert bf.f_b.shape == (5, 3)
        # paired streams use rows (0,1) and (2,3); the last stream row 4
        assert bf.f_b[0, 0] == bf.f_b[1, 0] != 0
        assert bf.f_b[2, 1] == bf.f_b[3, 1] != 0
        assert bf.f_b[4, 2] == 1.0
        assert np.count_nonzero(bf.f_b) == 5
        # composite columns all carry equal norm so the scalar power
        # normalization treats streams evenly
        norms = np.linalg.norm(bf.precoder(), axis=0)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-9)
        assert_invariants(bf)

    @pytest.mark.parametrize("m", [2, 7])
    def test_dimension_error(self, m):
        chan = rayleigh(16, 5, 5)
        with pytest.raises(DimensionError):
            mixed_designs(chan, factors(chan, 3), m, RHO)


class TestQuantize:
    def test_example_phases(self):
        from beamsim.beamformers import _snap_phases

        z = np.exp(1j * np.array([[0.3 * math.pi, 1.9 * math.pi, 0.25 * math.pi]]))
        snapped = np.mod(np.angle(_snap_phases(z, 2)), 2 * math.pi)
        # 0.3pi -> pi/2; 1.9pi -> 3pi/2 (plain absolute distance on the
        # [0, 2pi) grid, no wraparound); half-step tie 0.25pi -> 0
        np.testing.assert_allclose(
            snapped, [[math.pi / 2, 1.5 * math.pi, 0.0]], atol=1e-12
        )

    def test_grid_membership(self):
        chan = rayleigh(16, 6, 0)
        analog = kept(mixed_designs(chan, factors(chan, 4), 4, RHO))
        bf = one(quantized_designs(chan, analog, PhaseResolution(3), RHO))
        step = 2 * math.pi / 8
        ang = np.mod(np.angle(bf.f_rf), 2 * math.pi)
        assert np.allclose(np.mod(ang / step, 1.0), 0.0, atol=1e-9) or np.allclose(
            np.mod(ang / step + 0.5, 1.0), 0.5, atol=1e-9
        )
        assert_invariants(bf)

    def test_fine_grid_matches_analog(self):
        chan = rayleigh(16, 6, 1)
        analog = kept(mixed_designs(chan, factors(chan, 4), 4, RHO))
        fine = one(quantized_designs(chan, analog, PhaseResolution(14), RHO))
        assert abs(rate(chan, analog[0]) - rate(chan, fine)) <= 1e-3

    def test_inactive_entries_stay_off(self):
        chan = rayleigh(32, 6, 2)
        sel = kept(selection_designs(chan, factors(chan, 4), RHO, SelectionPolicy(25.0)))
        q = kept(quantized_designs(chan, sel, PhaseResolution(2), RHO))
        assert np.array_equal(q.f_rf == 0, sel.f_rf == 0)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_resolution_bit_range(self, bits):
        with pytest.raises(ValueError):
            PhaseResolution(bits)


class TestSelection:
    def test_beta_zero_identical_to_phase_only(self):
        chan = rayleigh(32, 7, 0)
        svd = factors(chan, 4)
        a = kept(selection_designs(chan, svd, RHO, SelectionPolicy(0.0)))
        b = kept(mixed_designs(chan, svd, 4, RHO))
        assert np.array_equal(a.f_rf, b.f_rf)
        assert np.array_equal(a.w_rf, b.w_rf)
        assert np.array_equal(a.power, b.power)

    def test_half_off_fraction(self):
        chan = draws(ChannelModel(RAYLEIGH, 64, 64), 7, range(500))
        bf = kept(selection_designs(chan, factors(chan, 4), RHO, SelectionPolicy(50.0)))
        off = int(np.sum(bf.f_rf == 0)) + int(np.sum(bf.w_rf == 0))
        on = int(np.sum(bf.f_rf != 0)) + int(np.sum(bf.w_rf != 0))
        frac = off / (off + on)
        assert abs(frac - 0.5) <= 0.03

    def test_gamma_tracks_live_shifters(self):
        chan = rayleigh(32, 7, 1)
        bf = one(selection_designs(chan, factors(chan, 4), RHO, SelectionPolicy(30.0)))
        assert_invariants(bf)
        # normalization reflects the actual number of live shifters and is
        # derived again when a matrix is replaced
        assert bf.gamma_t == pytest.approx(np.count_nonzero(bf.f_rf) / 4, rel=1e-12)
        assert replace(bf, f_rf=2 * bf.f_rf).gamma_t == pytest.approx(4 * bf.gamma_t)

    def test_degenerate_column_error(self):
        # a 1 x 1 channel's one shifter per side falls below the 70% threshold
        chan = explicit([[[1.3 + 0.4j]]])
        bf, ok = selection_designs(chan, factors(chan, 1), RHO, SelectionPolicy(70.0))
        assert ok.tolist() == [False] and bf.f_rf.shape == (0, 1, 1)


class TestMultiuserZf:
    def make_chan(self, seed, stream=0, n_t=32, k=4):
        return draws(ChannelModel(RAYLEIGH, n_t, k), seed, [stream])

    def test_hybrid_effective_channel_is_scaled_identity(self):
        chan = self.make_chan(8)
        bf = one(mu_zf_hybrid_designs(chan, factors(chan, 4)))
        e = chan.h[0] @ bf.precoder() / math.sqrt(bf.gamma_t)
        off = e - np.diag(np.diag(e))
        assert np.max(np.abs(off)) <= 1e-10
        np.testing.assert_allclose(bf.power, np.full(4, 0.25), atol=0)
        assert bf.w_rf is None and bf.w_b is None

    def test_gamma_follows_replaced_precoder(self):
        chan = self.make_chan(8, 3)
        bf = one(mu_zf_hybrid_designs(chan, factors(chan, 4)))
        assert bf.gamma_r == 1.0
        assert replace(bf, f_rf=2 * bf.f_rf).gamma_t == pytest.approx(4 * bf.gamma_t)

    def test_hybrid_rf_is_unit_modulus(self):
        chan = self.make_chan(8, 1)
        bf = one(mu_zf_hybrid_designs(chan, factors(chan, 4)))
        assert np.all(np.abs(np.abs(bf.f_rf) - 1.0) <= 1e-12)

    def test_digital_effective_channel_is_identity(self):
        chan = self.make_chan(8, 2)
        bf = one(mu_zf_digital_designs(chan, 4))
        e = chan.h[0] @ bf.precoder()
        np.testing.assert_allclose(e, np.eye(4), atol=1e-10)

    def test_unitary_channel(self):
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
        bf = one(mu_zf_digital_designs(explicit([q]), 4))
        np.testing.assert_allclose(bf.precoder(), q.conj().T, atol=1e-10)
        assert bf.gamma_t == pytest.approx(1.0, rel=1e-10)

    def test_digital_gamma_matches_wishart_mean(self):
        # gamma_t has one value per draw of a stack
        bf = kept(mu_zf_digital_designs(draws(ChannelModel(RAYLEIGH, 64, 4), 9, range(200)), 4))
        assert bf.gamma_t.shape == (200,)
        assert np.mean(bf.gamma_t) == pytest.approx(1 / 60, rel=0.1)

    def test_single_user_array_gain(self):
        chan = draws(ChannelModel(RAYLEIGH, 64, 1), 10, range(200))
        bf = kept(mu_zf_hybrid_designs(chan, factors(chan, 1)))
        rates = mu_streams(chan, bf, RHO).sum(axis=-1)
        predicted = math.log2(1 + RHO * (math.pi / 4) * 64)
        assert abs(np.mean(rates) - predicted) <= 0.5

    def test_singular_channel_rejected(self):
        chan = explicit([np.ones((4, 32))])  # rank one: H F_RF and H H^H are singular
        svd, ranked = channel_svds(chan, 4)
        assert ranked.tolist() == [False]
        assert mu_zf_hybrid_designs(chan, svd)[1].tolist() == [False]
        assert mu_zf_digital_designs(chan, 4)[1].tolist() == [False]


class TestRefusalMasks:
    """A draw a stage refuses is dropped from its stack by the mask; every
    kept draw is bitwise what the stage gives it as a stack of one."""

    def test_rank_mask_keeps_the_other_draws_bitwise(self):
        h = draws(ChannelModel(RAYLEIGH, 16, 16), 15, range(6)).h
        h[2] = np.outer(h[2][:, 0], h[2][0])  # rank one
        chan = explicit(h)
        svd, ok = channel_svds(chan, 4)
        assert ok.tolist() == [True, True, False, True, True, True]
        for t in np.flatnonzero(ok):
            alone, alone_ok = channel_svds(chan[[t]], 4)
            assert alone_ok.tolist() == [True]
            for got, want in ((svd.u, alone.u), (svd.sigma, alone.sigma), (svd.v, alone.v)):
                assert got[t].tobytes() == want[0].tobytes()

    def test_dead_column_mask_keeps_the_other_draws_bitwise(self):
        # an all-ones draw's singular vectors are flat at 1/4, every entry
        # below the 70% threshold, so its one RF column dies on both sides
        h = draws(ChannelModel(RAYLEIGH, 16, 16), 15, range(6)).h
        h[3] = 1.0
        chan = explicit(h)
        policy = SelectionPolicy(70.0)

        def build(c):
            return selection_designs(c, factors(c, 1), RHO, policy)

        made = build(chan)
        assert made[1].tolist() == [True, True, True, False, True, True]
        assert_kept_draws_bitwise_alone(chan, made, build)

    @pytest.mark.parametrize("kind", ["digital", "hybrid"])
    def test_ill_conditioned_multiuser_draw_dropped(self, kind):
        # draw 1's two users share one channel row: H H^H and H F_RF are singular
        h = draws(ChannelModel(RAYLEIGH, 32, 4), 16, range(5)).h
        h[1, 3] = h[1, 0]
        chan = explicit(h)

        def build(c):
            if kind == "digital":
                return mu_zf_digital_designs(c, 4)
            return mu_zf_hybrid_designs(c, channel_svds(c, 4)[0])

        made = build(chan)
        assert made[1].tolist() == [True, False, True, True, True]
        assert_kept_draws_bitwise_alone(chan, made, build)


# every point-to-point builder, given the stacked factors of 16 x 16 draws at k = 4
P2P_BUILDERS = {
    "digital": lambda chan, svd, rho: digital_designs(chan, svd, rho),
    "phase_only": lambda chan, svd, rho: mixed_designs(chan, svd, 4, rho),
    "mixed": lambda chan, svd, rho: mixed_designs(chan, svd, 6, rho),
    "double_rf": lambda chan, svd, rho: mixed_designs(chan, svd, 8, rho),
    "selection": lambda chan, svd, rho: selection_designs(chan, svd, rho, SelectionPolicy(25.0)),
    "quantized": lambda chan, svd, rho: quantized_designs(
        chan, kept(mixed_designs(chan, svd, 4, RHO)), PhaseResolution(3), rho
    ),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("kind", list(P2P_BUILDERS))
def test_p2p_builders_reject_non_positive_rho(kind, rho):
    chan = rayleigh(16, 14, 0)
    with pytest.raises(ValueError, match="rho must be positive"):
        P2P_BUILDERS[kind](chan, factors(chan, 4), rho)


@pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("kind", list(P2P_BUILDERS))
def test_p2p_builders_raise_where_waterfilling_refuses_the_gains(kind, bad, monkeypatch):
    # waterfill raises for draw 2's spoiled gains; a builder drops that draw
    # instead, and keeps the others bitwise as they are alone
    chan = draws(ChannelModel(RAYLEIGH, 16, 16), 14, range(5))
    svd = factors(chan, 4)
    analog = kept(mixed_designs(chan, svd, 4, RHO))  # made before the gains are spoiled

    def build(rows):
        if kind == "quantized":
            return quantized_designs(chan[rows], analog[rows], PhaseResolution(3), RHO)
        return P2P_BUILDERS[kind](chan[rows], svd[rows], RHO)

    alone = [kept(build([t])) for t in range(5)]
    real = beamformers._stream_gains

    def spoiled(e, f, w):
        gains = real(e, f, w)
        if len(gains) == 5:
            gains[2] = [bad, 0.0, 0.0, 0.0]
            with pytest.raises(ValueError):
                waterfill(gains[2], RHO)
        return gains

    monkeypatch.setattr(beamformers, "_stream_gains", spoiled)
    bf, ok = build(slice(None))
    assert ok.tolist() == [True, True, False, True, True]
    for row, t in enumerate(np.flatnonzero(ok)):
        assert design_bytes(bf[row]) == design_bytes(alone[t][0])


class TestCrossSchemeConsistency:
    def test_quantization_bound_holds_on_means(self):
        from beamsim import quant_gap_bound

        chan = draws(ChannelModel(RAYLEIGH, 64, 64), 12, range(60))
        analog = kept(mixed_designs(chan, factors(chan, 4), 4, RHO))
        r_analog = p2p_streams(chan, analog, RHO)[0].sum(axis=-1)
        for bits in (2, 3, 4):
            digital = kept(quantized_designs(chan, analog, PhaseResolution(bits), RHO))
            per, ok = p2p_streams(chan, digital, RHO)
            assert ok.all()
            assert np.mean(r_analog - per.sum(axis=-1)) <= quant_gap_bound(4, bits) + 0.5

    def test_capacity_dominance_across_schemes(self):
        chan = rayleigh(24, 13, 0)
        svd = factors(chan, 4)
        cap = capacity_p2p(svd.sigma[0], RHO).rate_bits
        for build in P2P_BUILDERS.values():
            assert rate(chan, one(build(chan, svd, RHO))) <= cap + 1e-9
