"""Rate machinery: waterfilling, capacity, log-det and multiuser evaluators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import (
    ChannelModel,
    HybridBeamformer,
    RAYLEIGH,
    capacity_p2p,
    draw_channels,
    waterfill,
)
from beamsim.beamformers import digital_designs, mixed_designs, mu_zf_digital_designs
from beamsim.channel import ChannelRealization, channel_svds
from beamsim import linalg, rates
from beamsim.rates import capacity_streams, mu_streams, p2p_streams

from oracles import sum_rate_scalar_loop, waterfill_loop

RHO_34DB = 10.0**3.4


def explicit_channel(h):
    """The stack of one of the channel matrix ``h``."""
    h = np.asarray(h, dtype=complex)
    model = ChannelModel(RAYLEIGH, h.shape[1], h.shape[0])
    return ChannelRealization(h=h[None], model=model)


def rayleigh(n_t, n_r, seed, streams):
    return draw_channels(ChannelModel(RAYLEIGH, n_t, n_r), seed, streams)


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


def p2p_rates(chan, bf, rho=RHO_34DB):
    """The log-det sum rate of each draw, all of which the evaluator must keep."""
    per, ok = p2p_streams(chan, bf, rho)
    assert ok.all()
    return per.sum(axis=-1)


def capacity(svd, rho=RHO_34DB):
    return capacity_streams(svd.sigma, rho).sum(axis=-1)


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

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 1e-4, 0.5, 1.0, 2.0, 50.0]), min_size=4, max_size=4)
            | st.lists(st.floats(1e-6, 1e6), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.floats(1e-3, 1e6),
    )
    @settings(deadline=None, max_examples=200)
    def test_stack_bits_equal_the_loop_row_by_row(self, rows, rho):
        # repeated gains make ties in the sorted order
        gains = np.array(rows)
        gains[gains.max(axis=1) == 0.0, 0] = 1.0
        stacked = waterfill(gains, rho)
        for g, p in zip(gains, stacked):
            assert waterfill(g, rho).tobytes() == p.tobytes() == waterfill_loop(g, rho).tobytes()

    def test_stack_with_an_all_zero_row_rejected(self):
        with pytest.raises(ValueError):
            waterfill(np.array([[1.0, 2.0], [0.0, 0.0]]), rho=1.0)

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
        rep = capacity_p2p(factors(explicit_channel([[1.0]]), 1).sigma[0], 1.0)
        assert rep.rate_bits == pytest.approx(1.0, abs=1e-12)

    def test_two_stream_hand_value(self):
        rep = capacity_p2p(factors(explicit_channel(np.diag([2.0, 1.0])), 2).sigma[0], 1.0)
        assert rep.rate_bits == pytest.approx(2.3398500028846243, abs=1e-9)

    def test_rank_error(self):
        # a rank-one channel is refused two streams
        h = np.outer([1.0, 2.0], [3.0, 4.0])
        _, ok = channel_svds(explicit_channel(h), 2)
        assert ok.tolist() == [False]

    def test_per_stream_sums(self):
        chan = rayleigh(8, 8, 1, [0])
        rep = capacity_p2p(factors(chan, 3).sigma[0], RHO_34DB)
        assert rep.rate_bits == pytest.approx(float(rep.per_stream.sum()), abs=1e-9)


class TestAchievableRate:
    def test_digital_meets_capacity(self):
        chan = rayleigh(16, 16, 2, [0])
        svd = factors(chan, 4)
        rate = p2p_rates(chan, kept(digital_designs(chan, svd, RHO_34DB)))
        assert rate[0] == pytest.approx(capacity(svd)[0], abs=1e-9)

    def test_double_rf_meets_capacity(self):
        chan = rayleigh(16, 16, 2, [1])
        svd = factors(chan, 2)
        rate = p2p_rates(chan, kept(mixed_designs(chan, svd, 4, RHO_34DB)))
        assert rate[0] == pytest.approx(capacity(svd)[0], abs=1e-9)

    def test_capacity_dominates_hybrids(self):
        chan = rayleigh(12, 12, 2, range(10, 15))
        svd = factors(chan, 3)
        rate = p2p_rates(chan, kept(mixed_designs(chan, svd, 3, RHO_34DB)))
        assert np.all(rate <= capacity(svd) + 1e-9)

    def test_monotone_in_rho(self):
        chan = rayleigh(16, 16, 2, [2])
        svd = factors(chan, 4)
        prev = -math.inf
        for rho_db in range(0, 45, 5):
            rho = 10 ** (rho_db / 10)
            rate = p2p_rates(chan, kept(mixed_designs(chan, svd, 4, rho)), rho)[0]
            assert rate >= prev - 1e-12
            prev = rate

    def test_scale_consistency(self):
        # doubling gamma_t by scaling F leaves the normalized rate unchanged
        chan = rayleigh(16, 16, 2, [3])
        bf = kept(mixed_designs(chan, factors(chan, 4), 4, RHO_34DB))
        base = p2p_rates(chan, bf)[0]
        scaled = replace(bf, f_rf=bf.f_rf * math.sqrt(2.0))
        assert p2p_rates(chan, scaled)[0] == pytest.approx(base, abs=1e-9)

    def test_det_form_equals_eigen_form(self):
        gen = np.random.default_rng(0)
        a = (gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))) / math.sqrt(2)
        psd = a @ a.conj().T
        sign, logdet = np.linalg.slogdet(np.eye(5) + psd)
        assert sign == pytest.approx(1.0)
        eig_form = np.sum(np.log2(1 + np.maximum(np.linalg.eigvalsh(psd), 0.0)))
        assert logdet / math.log(2) == pytest.approx(eig_form, abs=1e-8)

    def test_singular_noise_covariance_rejected(self):
        # draw 1's combiner repeats a column: its W^H W is singular, so the
        # evaluator drops it and rates the others bitwise as they are alone
        chan = rayleigh(8, 8, 2, range(6, 10))
        bf = kept(digital_designs(chan, factors(chan, 2), RHO_34DB))
        w = bf.w_rf.copy()
        w[1, :, 1] = w[1, :, 0]
        broken = replace(bf, w_rf=w)
        per, ok = p2p_streams(chan, broken, RHO_34DB)
        assert ok.tolist() == [True, False, True, True]
        for row, t in enumerate(np.flatnonzero(ok)):
            alone, alone_ok = p2p_streams(chan[[t]], broken[[t]], RHO_34DB)
            assert alone_ok.tolist() == [True]
            assert per[row].tobytes() == alone[0].tobytes()

    def test_condition_gate_reads_eigenvalues_as_cond_reads_singular_values(self):
        # Rn is diagonal in the combiner's orthonormal basis, with condition
        # number (d_max / d_min)^2 either side of COND_LIMIT = 1e12; its
        # smallest eigenvalue is resolved only to about 2e-4 relative there
        chan = rayleigh(8, 8, 2, range(6, 9))
        bf = kept(digital_designs(chan, factors(chan, 2), RHO_34DB))
        ratios = np.array([1e11, 1e13, 1.0])
        w = bf.w_rf * np.stack([np.ones(3), 1 / np.sqrt(ratios)], axis=-1)[:, None, :]
        scaled = replace(bf, w_rf=w)
        _, ok = p2p_streams(chan, scaled, RHO_34DB)
        assert ok.tolist() == [True, False, True]
        rn = linalg.adjoint(scaled.combiner()) @ scaled.combiner()
        assert ok.tolist() == rates._conditioned(np.linalg.cond(rn)).tolist()

    def test_refused_draws_rate_nan(self):
        # the builder refuses draw 0 and the evaluator draw 2 (its combiner
        # repeats a column); the others keep their evaluator sums bitwise
        chan = rayleigh(8, 8, 2, range(6, 10))
        bf = kept(digital_designs(chan, factors(chan, 2), RHO_34DB))
        w = bf.w_rf.copy()
        w[2, :, 1] = w[2, :, 0]
        built = np.array([False, True, True, True])
        rate = rates.p2p_rates(chan, (replace(bf, w_rf=w)[built], built), RHO_34DB)
        assert np.isnan(rate).tolist() == [True, False, True, False]
        want = p2p_streams(chan[[1, 3]], bf[[1, 3]], RHO_34DB)[0].sum(axis=-1)
        assert rate[[1, 3]].tobytes() == want.tobytes()

    def test_gap_matches_direct_formula(self):
        # rate of the unconstrained design equals sum log2(1 + rho p sigma^2)
        chan = rayleigh(16, 16, 2, [5])
        bf = kept(digital_designs(chan, factors(chan, 4), RHO_34DB))
        from beamsim import thin_svd

        sigma = thin_svd(chan.h[0], 4).sigma
        direct = np.sum(np.log2(1 + RHO_34DB * bf.power[0] * sigma**2))
        assert p2p_rates(chan, bf)[0] == pytest.approx(float(direct), abs=1e-9)


def mu_design(f):
    """A stack of one multiuser design with precoder ``f`` and equal power."""
    k = f.shape[1]
    return HybridBeamformer(
        f_rf=f[None], f_b=np.eye(k, dtype=complex)[None], power=np.full((1, k), 1.0 / k)
    )


class TestSumRateMu:
    def test_exact_zf_closed_form(self):
        chan = rayleigh(32, 4, 3, [0])
        bf = kept(mu_zf_digital_designs(chan))
        rate = mu_streams(chan, bf, RHO_34DB).sum(axis=-1)
        expected = 4 * math.log2(1 + RHO_34DB / (4 * bf.gamma_t[0]))
        assert rate[0] == pytest.approx(expected, abs=1e-9)

    def test_zero_row_contributes_nothing(self):
        h = np.array([[0, 0, 0, 0], [1, 2, 0.5, 1j]], dtype=complex)
        f = np.array([[1, 0], [0, 1], [1, 1], [0.5, 0.5j]], dtype=complex)
        per = mu_streams(explicit_channel(h), mu_design(f), 10.0)[0]
        assert per[0] == 0.0
        assert per[1] > 0.0

    def test_matches_scalar_loop_oracle(self):
        gen = np.random.default_rng(8)
        h = (gen.standard_normal((4, 8)) + 1j * gen.standard_normal((4, 8))) / math.sqrt(2)
        f = (gen.standard_normal((8, 4)) + 1j * gen.standard_normal((8, 4))) / math.sqrt(2)
        rate = mu_streams(explicit_channel(h), mu_design(f), 31.7).sum(axis=-1)[0]
        assert rate == pytest.approx(sum_rate_scalar_loop(h, f, 31.7), abs=1e-9)
