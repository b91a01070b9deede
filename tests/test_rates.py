"""Rate machinery: waterfilling, capacity, log-det and multiuser evaluators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import (
    ChannelModel,
    DimensionError,
    HybridBeamformer,
    RAYLEIGH,
    SeededRng,
    achievable_rate,
    capacity_p2p,
    digital_svd_beamformer,
    double_rf_beamformer,
    draw_channel,
    mu_zf_digital,
    sum_rate_mu,
    svd_phase_beamformer,
    waterfill,
)
from beamsim.channel import ChannelRealization
from beamsim.errors import RankError

from oracles import sum_rate_scalar_loop

RHO_34DB = 10.0**3.4


def explicit_channel(h):
    h = np.asarray(h, dtype=complex)
    model = ChannelModel(RAYLEIGH, h.shape[1], h.shape[0])
    return ChannelRealization(h=h, model=model)


class TestWaterfill:
    def test_equal_gains_split_evenly(self):
        p = waterfill(np.array([2.0, 2.0, 2.0]), rho=1.0)
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-12)

    def test_hand_kkt_example(self):
        # gains (4, 1), rho 1: mu = 1.125, p = (0.875, 0.125)
        p = waterfill(np.array([4.0, 1.0]), rho=1.0)
        np.testing.assert_allclose(p, [0.875, 0.125], atol=1e-12)

    def test_weak_stream_shut_off(self):
        p = waterfill(np.array([100.0, 1e-4]), rho=0.01)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            waterfill(np.zeros(3), rho=1.0)

    def test_zero_gain_gets_zero_power(self):
        p = waterfill(np.array([1.0, 0.0, 2.0]), rho=10.0)
        assert p[1] == 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)), min_size=1, max_size=8),
        st.floats(0.01, 1e4),
    )
    @settings(deadline=None, max_examples=200)
    def test_kkt_properties(self, gains, rho):
        # gains bounded away from 0 keep 1/(rho g) within float range of the
        # budget, where the 1e-9/1e-12 KKT tolerances are meaningful
        gains = np.array(gains)
        if not np.any(gains > 0):
            gains[0] = 1.0
        p = waterfill(gains, rho)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        active = p > 0
        levels = p[active] + 1.0 / (rho * gains[active])
        assert levels.max() - levels.min() <= 1e-9
        off = (~active) & (gains > 0)
        if np.any(off):
            assert np.all(1.0 / (rho * gains[off]) >= levels.max() - 1e-9)


class TestCapacity:
    def test_unit_channel(self):
        rep = capacity_p2p(explicit_channel([[1.0]]), 1, 1.0)
        assert rep.rate_bits == pytest.approx(1.0, abs=1e-12)

    def test_two_stream_hand_value(self):
        rep = capacity_p2p(explicit_channel(np.diag([2.0, 1.0])), 2, 1.0)
        assert rep.rate_bits == pytest.approx(2.3398500028846243, abs=1e-9)

    def test_rank_error(self):
        h = np.outer([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(RankError):
            capacity_p2p(explicit_channel(h), 2, 1.0)

    def test_per_stream_sums(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 8, 8), SeededRng(1, 0))
        rep = capacity_p2p(chan, 3, RHO_34DB)
        assert rep.rate_bits == pytest.approx(float(rep.per_stream.sum()), abs=1e-9)


class TestAchievableRate:
    def test_digital_meets_capacity(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 16, 16), SeededRng(2, 0))
        cap = capacity_p2p(chan, 4, RHO_34DB).rate_bits
        rate = achievable_rate(chan, digital_svd_beamformer(chan, 4, RHO_34DB), RHO_34DB).rate_bits
        assert rate == pytest.approx(cap, abs=1e-9)

    def test_double_rf_meets_capacity(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 16, 16), SeededRng(2, 1))
        cap = capacity_p2p(chan, 2, RHO_34DB).rate_bits
        rate = achievable_rate(chan, double_rf_beamformer(chan, 2, RHO_34DB), RHO_34DB).rate_bits
        assert rate == pytest.approx(cap, abs=1e-9)

    def test_capacity_dominates_hybrids(self):
        for t in range(5):
            chan = draw_channel(ChannelModel(RAYLEIGH, 12, 12), SeededRng(2, 10 + t))
            cap = capacity_p2p(chan, 3, RHO_34DB).rate_bits
            rate = achievable_rate(chan, svd_phase_beamformer(chan, 3, RHO_34DB), RHO_34DB).rate_bits
            assert rate <= cap + 1e-9

    def test_monotone_in_rho(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 16, 16), SeededRng(2, 2))
        prev = -math.inf
        for rho_db in range(0, 45, 5):
            rho = 10 ** (rho_db / 10)
            rate = achievable_rate(chan, svd_phase_beamformer(chan, 4, rho), rho).rate_bits
            assert rate >= prev - 1e-12
            prev = rate

    def test_scale_consistency(self):
        # doubling gamma_t by scaling F leaves the normalized rate unchanged
        chan = draw_channel(ChannelModel(RAYLEIGH, 16, 16), SeededRng(2, 3))
        bf = svd_phase_beamformer(chan, 4, RHO_34DB)
        base = achievable_rate(chan, bf, RHO_34DB).rate_bits
        scaled = replace(bf, f_rf=bf.f_rf * math.sqrt(2.0))
        assert achievable_rate(chan, scaled, RHO_34DB).rate_bits == pytest.approx(base, abs=1e-9)

    def test_det_form_equals_eigen_form(self):
        gen = np.random.default_rng(0)
        a = (gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))) / math.sqrt(2)
        psd = a @ a.conj().T
        sign, logdet = np.linalg.slogdet(np.eye(5) + psd)
        assert sign == pytest.approx(1.0)
        eig_form = np.sum(np.log2(1 + np.maximum(np.linalg.eigvalsh(psd), 0.0)))
        assert logdet / math.log(2) == pytest.approx(eig_form, abs=1e-8)

    def test_requires_receive_side(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 8, 4), SeededRng(2, 4))
        bf = mu_zf_digital(chan, 4, RHO_34DB)
        with pytest.raises(DimensionError):
            achievable_rate(chan, bf, RHO_34DB)

    def test_singular_noise_covariance_rejected(self):
        from beamsim import SingularMatrixError

        chan = draw_channel(ChannelModel(RAYLEIGH, 8, 8), SeededRng(2, 6))
        bf = digital_svd_beamformer(chan, 2, RHO_34DB)
        w = bf.w_rf.copy()
        w[:, 1] = w[:, 0]  # duplicate combiner column: W^H W is singular
        broken = replace(bf, w_rf=w)
        with pytest.raises(SingularMatrixError):
            achievable_rate(chan, broken, RHO_34DB)

    def test_gap_matches_direct_formula(self):
        # rate of the unconstrained design equals sum log2(1 + rho p sigma^2)
        chan = draw_channel(ChannelModel(RAYLEIGH, 16, 16), SeededRng(2, 5))
        bf = digital_svd_beamformer(chan, 4, RHO_34DB)
        rep = achievable_rate(chan, bf, RHO_34DB)
        from beamsim import thin_svd

        sigma = thin_svd(chan.h, 4).sigma
        direct = np.sum(np.log2(1 + RHO_34DB * bf.power * sigma**2))
        assert rep.rate_bits == pytest.approx(float(direct), abs=1e-9)


class TestSumRateMu:
    def test_exact_zf_closed_form(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 32, 4), SeededRng(3, 0))
        bf = mu_zf_digital(chan, 4, RHO_34DB)
        rep = sum_rate_mu(chan, bf, RHO_34DB)
        expected = 4 * math.log2(1 + RHO_34DB / (4 * bf.gamma_t))
        assert rep.rate_bits == pytest.approx(expected, abs=1e-9)

    def test_zero_row_contributes_nothing(self):
        h = np.array([[0, 0, 0, 0], [1, 2, 0.5, 1j]], dtype=complex)
        chan = explicit_channel(h)
        f = np.array([[1, 0], [0, 1], [1, 1], [0.5, 0.5j]], dtype=complex)
        bf = HybridBeamformer(
            f_rf=f,
            f_b=np.eye(2, dtype=complex),
            power=np.full(2, 0.5),
            digital=True,
        )
        rep = sum_rate_mu(chan, bf, 10.0)
        assert rep.per_stream[0] == 0.0
        assert rep.per_stream[1] > 0.0

    def test_matches_scalar_loop_oracle(self):
        gen = np.random.default_rng(8)
        h = (gen.standard_normal((4, 8)) + 1j * gen.standard_normal((4, 8))) / math.sqrt(2)
        f = (gen.standard_normal((8, 4)) + 1j * gen.standard_normal((8, 4))) / math.sqrt(2)
        chan = explicit_channel(h)
        bf = HybridBeamformer(
            f_rf=f,
            f_b=np.eye(4, dtype=complex),
            power=np.full(4, 0.25),
            digital=True,
        )
        rep = sum_rate_mu(chan, bf, 31.7)
        assert rep.rate_bits == pytest.approx(sum_rate_scalar_loop(h, f, 31.7), abs=1e-9)

    def test_rejects_receive_side(self):
        chan = draw_channel(ChannelModel(RAYLEIGH, 8, 8), SeededRng(3, 1))
        bf = digital_svd_beamformer(chan, 4, RHO_34DB)
        with pytest.raises(DimensionError):
            sum_rate_mu(chan, bf, RHO_34DB)
