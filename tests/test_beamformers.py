"""Beamformer constructions: phase-only, paired, mixed, quantized, selection, ZF."""

import math
from dataclasses import replace

import numpy as np
import pytest

from beamsim import (
    ChannelModel,
    DegenerateColumnError,
    DimensionError,
    GEOMETRIC,
    PhaseResolution,
    RAYLEIGH,
    RankError,
    SeededRng,
    SelectionPolicy,
    SingularMatrixError,
    achievable_rate,
    capacity_p2p,
    channel_svd,
    digital_svd_beamformer,
    draw_channel,
    mixed_beamformer,
    mu_zf_digital,
    mu_zf_hybrid,
    quantize_rf,
    select_phase_shifters,
    sum_rate_mu,
    thin_svd,
)
from beamsim import beamformers
from beamsim.channel import ChannelRealization

RHO = 10.0**3.4


def rayleigh(n, seed, stream=0):
    return draw_channel(ChannelModel(RAYLEIGH, n, n), SeededRng(seed, stream))


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
        chan = draw_channel(ChannelModel(GEOMETRIC, 16, 16, l_paths=1), SeededRng(4, 0))
        bf = digital_svd_beamformer(chan, channel_svd(chan, 1), RHO)
        v = thin_svd(chan.h, 1).v
        np.testing.assert_allclose(bf.precoder(), v, atol=1e-12)

    def test_gamma_is_one(self):
        chan = rayleigh(16, 4, 1)
        bf = digital_svd_beamformer(chan, channel_svd(chan, 4), RHO)
        assert bf.gamma_t == pytest.approx(1.0, abs=1e-12)
        assert bf.gamma_r == pytest.approx(1.0, abs=1e-12)
        assert_invariants(bf, unit_modulus=False)

    def test_rank_error_beyond_geometry(self):
        chan = draw_channel(ChannelModel(GEOMETRIC, 16, 16, l_paths=2), SeededRng(4, 1))
        with pytest.raises(RankError):
            digital_svd_beamformer(chan, channel_svd(chan, 3), RHO)


class TestSvdPhase:
    def test_positive_real_column_gives_ones(self):
        chan = ChannelRealization(
            h=np.diag([3.0, 2.0, 1.0]).astype(complex), model=ChannelModel(RAYLEIGH, 3, 3)
        )
        bf = mixed_beamformer(chan, channel_svd(chan, 2), 2, RHO)
        np.testing.assert_allclose(bf.f_rf, np.ones((3, 2)), atol=1e-12)

    def test_structure(self):
        chan = rayleigh(16, 4, 2)
        bf = mixed_beamformer(chan, channel_svd(chan, 4), 4, RHO)
        assert bf.f_rf.shape == (16, 4)
        np.testing.assert_allclose(bf.f_b, np.eye(4), atol=0)
        assert bf.gamma_t == pytest.approx(16.0, rel=1e-12)
        assert bf.gamma_r == pytest.approx(16.0, rel=1e-12)
        assert_invariants(bf)

    def test_phase_matching_beats_random_candidates(self):
        chan = rayleigh(24, 4, 3)
        svd = thin_svd(chan.h, 3)
        f_rf = mixed_beamformer(chan, channel_svd(chan, 3), 3, RHO).f_rf
        gen = np.random.default_rng(0)
        for k in range(3):
            v = svd.v[:, k]
            best = abs(np.vdot(v, f_rf[:, k]))
            cands = np.exp(1j * gen.uniform(0, 2 * math.pi, (1000, 24)))
            assert np.all(best >= np.abs(cands.conj() @ v) - 1e-12)

    def test_gauge_invariance_of_rate(self):
        chan = rayleigh(20, 4, 4)
        base = achievable_rate(
            chan, mixed_beamformer(chan, channel_svd(chan, 3), 3, RHO), RHO
        ).rate_bits
        # rotating each singular-vector column by a unit phase shifts every
        # shifter by a stream-constant phase and leaves the rate unchanged
        svd = thin_svd(chan.h, 3)
        gen = np.random.default_rng(1)
        phases = np.exp(1j * gen.uniform(0, 2 * math.pi, 3))
        rot = replace(svd, u=svd.u * phases, v=svd.v * phases)
        bf = mixed_beamformer(chan, rot, 3, RHO)
        assert achievable_rate(chan, bf, RHO).rate_bits == pytest.approx(base, abs=1e-9)


class TestDoubleRf:
    def test_unit_magnitude_entry_collapses_pair(self):
        chan = ChannelRealization(
            h=np.array([[2.0 * np.exp(0.7j)]]), model=ChannelModel(RAYLEIGH, 1, 1)
        )
        bf = mixed_beamformer(chan, channel_svd(chan, 1), 2, RHO)
        # |V| = 1 so both shifters carry the same phase and the pair
        # reproduces the entry exactly
        assert bf.f_rf[0, 0] == pytest.approx(bf.f_rf[0, 1], abs=1e-12)
        v = thin_svd(chan.h, 1).v
        np.testing.assert_allclose(bf.precoder(), v, atol=1e-12)

    def test_exact_factorization(self):
        chan = rayleigh(16, 5, 0)
        bf = mixed_beamformer(chan, channel_svd(chan, 2), 4, RHO)
        v = thin_svd(chan.h, 2).v
        assert np.linalg.norm(bf.precoder() - v) <= 1e-10
        assert bf.gamma_t == pytest.approx(1.0, rel=1e-12)
        assert_invariants(bf)

    def test_rate_equals_digital(self):
        chan = rayleigh(16, 5, 1)
        svd = channel_svd(chan, 4)
        r_dig = achievable_rate(chan, digital_svd_beamformer(chan, svd, RHO), RHO).rate_bits
        r_dbl = achievable_rate(chan, mixed_beamformer(chan, svd, 8, RHO), RHO).rate_bits
        assert r_dbl == pytest.approx(r_dig, abs=1e-9)


class TestMixed:
    def test_block_structure(self):
        chan = rayleigh(16, 5, 4)
        bf = mixed_beamformer(chan, channel_svd(chan, 3), 5, RHO)
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
            mixed_beamformer(chan, channel_svd(chan, 3), m, RHO)


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
        analog = mixed_beamformer(chan, channel_svd(chan, 4), 4, RHO)
        bf = quantize_rf(chan, analog, PhaseResolution(3), RHO)
        step = 2 * math.pi / 8
        ang = np.mod(np.angle(bf.f_rf), 2 * math.pi)
        assert np.allclose(np.mod(ang / step, 1.0), 0.0, atol=1e-9) or np.allclose(
            np.mod(ang / step + 0.5, 1.0), 0.5, atol=1e-9
        )
        assert_invariants(bf)

    def test_fine_grid_matches_analog(self):
        chan = rayleigh(16, 6, 1)
        analog = mixed_beamformer(chan, channel_svd(chan, 4), 4, RHO)
        fine = quantize_rf(chan, analog, PhaseResolution(14), RHO)
        r_analog = achievable_rate(chan, analog, RHO).rate_bits
        r_fine = achievable_rate(chan, fine, RHO).rate_bits
        assert abs(r_analog - r_fine) <= 1e-3

    def test_inactive_entries_stay_off(self):
        chan = rayleigh(32, 6, 2)
        sel = select_phase_shifters(chan, channel_svd(chan, 4), RHO, SelectionPolicy(25.0))
        q = quantize_rf(chan, sel, PhaseResolution(2), RHO)
        assert np.array_equal(q.f_rf == 0, sel.f_rf == 0)

    def test_rejects_digital_beamformer(self):
        chan = rayleigh(8, 6, 3)
        bf = digital_svd_beamformer(chan, channel_svd(chan, 2), RHO)
        with pytest.raises(ValueError):
            quantize_rf(chan, bf, PhaseResolution(2), RHO)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_resolution_bit_range(self, bits):
        with pytest.raises(ValueError):
            PhaseResolution(bits)


class TestSelection:
    def test_beta_zero_identical_to_phase_only(self):
        chan = rayleigh(32, 7, 0)
        svd = channel_svd(chan, 4)
        a = select_phase_shifters(chan, svd, RHO, SelectionPolicy(0.0))
        b = mixed_beamformer(chan, svd, 4, RHO)
        assert np.array_equal(a.f_rf, b.f_rf)
        assert np.array_equal(a.w_rf, b.w_rf)
        assert np.array_equal(a.power, b.power)

    def test_half_off_fraction(self):
        off = on = 0
        for t in range(500):
            chan = rayleigh(64, 7, t)
            bf = select_phase_shifters(chan, channel_svd(chan, 4), RHO, SelectionPolicy(50.0))
            off += int(np.sum(bf.f_rf == 0)) + int(np.sum(bf.w_rf == 0))
            on += int(np.sum(bf.f_rf != 0)) + int(np.sum(bf.w_rf != 0))
        frac = off / (off + on)
        assert abs(frac - 0.5) <= 0.03

    def test_gamma_tracks_live_shifters(self):
        chan = rayleigh(32, 7, 1)
        bf = select_phase_shifters(chan, channel_svd(chan, 4), RHO, SelectionPolicy(30.0))
        assert_invariants(bf)
        # normalization reflects the actual number of live shifters and is
        # derived again when a matrix is replaced
        assert bf.gamma_t == pytest.approx(np.count_nonzero(bf.f_rf) / 4, rel=1e-12)
        assert replace(bf, f_rf=2 * bf.f_rf).gamma_t == pytest.approx(4 * bf.gamma_t)

    def test_degenerate_column_error(self):
        chan = ChannelRealization(
            h=np.array([[1.3 + 0.4j]]), model=ChannelModel(RAYLEIGH, 1, 1)
        )
        with pytest.raises(DegenerateColumnError):
            select_phase_shifters(chan, channel_svd(chan, 1), RHO, SelectionPolicy(70.0))


class TestMultiuserZf:
    def make_chan(self, seed, stream=0, n_t=32, k=4):
        return draw_channel(ChannelModel(RAYLEIGH, n_t, k), SeededRng(seed, stream))

    def test_hybrid_effective_channel_is_scaled_identity(self):
        chan = self.make_chan(8)
        bf = mu_zf_hybrid(chan, channel_svd(chan, 4))
        e = chan.h @ bf.precoder() / math.sqrt(bf.gamma_t)
        off = e - np.diag(np.diag(e))
        assert np.max(np.abs(off)) <= 1e-10
        np.testing.assert_allclose(bf.power, np.full(4, 0.25), atol=0)
        assert bf.w_rf is None and bf.w_b is None

    def test_gamma_follows_replaced_precoder(self):
        chan = self.make_chan(8, 3)
        bf = mu_zf_hybrid(chan, channel_svd(chan, 4))
        assert bf.gamma_r == 1.0
        assert replace(bf, f_rf=2 * bf.f_rf).gamma_t == pytest.approx(4 * bf.gamma_t)

    def test_hybrid_rf_is_unit_modulus(self):
        chan = self.make_chan(8, 1)
        bf = mu_zf_hybrid(chan, channel_svd(chan, 4))
        assert np.all(np.abs(np.abs(bf.f_rf) - 1.0) <= 1e-12)

    def test_digital_effective_channel_is_identity(self):
        chan = self.make_chan(8, 2)
        bf = mu_zf_digital(chan, 4)
        e = chan.h @ bf.precoder()
        np.testing.assert_allclose(e, np.eye(4), atol=1e-10)

    def test_unitary_channel(self):
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
        chan = ChannelRealization(h=q, model=ChannelModel(RAYLEIGH, 4, 4))
        bf = mu_zf_digital(chan, 4)
        np.testing.assert_allclose(bf.precoder(), q.conj().T, atol=1e-10)
        assert bf.gamma_t == pytest.approx(1.0, rel=1e-10)

    def test_digital_gamma_matches_wishart_mean(self):
        gammas = [mu_zf_digital(self.make_chan(9, t, n_t=64), 4).gamma_t for t in range(200)]
        assert np.mean(gammas) == pytest.approx(1 / 60, rel=0.1)

    def test_single_user_array_gain(self):
        rates = []
        for t in range(200):
            chan = draw_channel(ChannelModel(RAYLEIGH, 64, 1), SeededRng(10, t))
            bf = mu_zf_hybrid(chan, channel_svd(chan, 1))
            rates.append(sum_rate_mu(chan, bf, RHO).rate_bits)
        predicted = math.log2(1 + RHO * (math.pi / 4) * 64)
        assert abs(np.mean(rates) - predicted) <= 0.5

    def test_singular_channel_rejected(self):
        h = np.ones((4, 32), dtype=complex)  # rank one: H F_RF is singular
        chan = ChannelRealization(h=h, model=ChannelModel(RAYLEIGH, 32, 4))
        with pytest.raises((SingularMatrixError, RankError)):
            mu_zf_hybrid(chan, channel_svd(chan, 4))

    def test_shape_guard(self):
        chan = rayleigh(16, 11, 0)
        with pytest.raises(DimensionError):
            mu_zf_hybrid(chan, channel_svd(chan, 4))


# every point-to-point builder, given the factors of a 16 x 16 draw at k = 4
P2P_BUILDERS = {
    "digital": lambda chan, svd, rho: digital_svd_beamformer(chan, svd, rho),
    "phase_only": lambda chan, svd, rho: mixed_beamformer(chan, svd, 4, rho),
    "mixed": lambda chan, svd, rho: mixed_beamformer(chan, svd, 6, rho),
    "double_rf": lambda chan, svd, rho: mixed_beamformer(chan, svd, 8, rho),
    "selection": lambda chan, svd, rho: select_phase_shifters(
        chan, svd, rho, SelectionPolicy(25.0)
    ),
    "quantized": lambda chan, svd, rho: quantize_rf(
        chan, mixed_beamformer(chan, svd, 4, RHO), PhaseResolution(3), rho
    ),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("kind", list(P2P_BUILDERS))
def test_p2p_builders_reject_non_positive_rho(kind, rho):
    chan = rayleigh(16, 14, 0)
    svd = channel_svd(chan, 4)
    with pytest.raises(ValueError, match="rho must be positive"):
        P2P_BUILDERS[kind](chan, svd, rho)


@pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("kind", list(P2P_BUILDERS))
def test_p2p_builders_raise_where_waterfilling_refuses_the_gains(kind, bad, monkeypatch):
    # the single-draw form of a builder raises where its stack drops the draw
    chan = rayleigh(16, 14, 0)
    svd = channel_svd(chan, 4)
    analog = mixed_beamformer(chan, svd, 4, RHO)
    builders = {
        **P2P_BUILDERS,
        "quantized": lambda chan, svd, rho: quantize_rf(chan, analog, PhaseResolution(3), rho),
    }
    monkeypatch.setattr(
        beamformers, "_stream_gains", lambda e, f, w: np.full(e.shape[:-1], bad)
    )
    with pytest.raises(ValueError, match="waterfilling needs finite stream gains"):
        builders[kind](chan, svd, RHO)


class TestCrossSchemeConsistency:
    def test_quantization_bound_holds_on_means(self):
        from beamsim import quant_gap_bound

        for bits in (2, 3, 4):
            diffs = []
            for t in range(60):
                chan = rayleigh(64, 12, t)
                analog = mixed_beamformer(chan, channel_svd(chan, 4), 4, RHO)
                digital = quantize_rf(chan, analog, PhaseResolution(bits), RHO)
                diffs.append(
                    achievable_rate(chan, analog, RHO).rate_bits
                    - achievable_rate(chan, digital, RHO).rate_bits
                )
            assert np.mean(diffs) <= quant_gap_bound(4, bits) + 0.5

    def test_capacity_dominance_across_schemes(self):
        chan = rayleigh(24, 13, 0)
        svd = channel_svd(chan, 4)
        cap = capacity_p2p(svd.sigma, RHO).rate_bits
        builders = [
            digital_svd_beamformer(chan, svd, RHO),
            mixed_beamformer(chan, svd, 4, RHO),
            mixed_beamformer(chan, svd, 8, RHO),
            mixed_beamformer(chan, svd, 6, RHO),
            select_phase_shifters(chan, svd, RHO, SelectionPolicy(25.0)),
            quantize_rf(chan, mixed_beamformer(chan, svd, 4, RHO), PhaseResolution(3), RHO),
        ]
        for bf in builders:
            assert achievable_rate(chan, bf, RHO).rate_bits <= cap + 1e-9
