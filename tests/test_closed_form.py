"""Closed-form gap expressions and the phase-shifter power model."""

import math

import numpy as np
import pytest

import beamsim
from beamsim import beamformers, closed_form
from beamsim import (
    DimensionError,
    PowerModelParams,
    alpha_from_beta,
    mixed_gap,
    mu_zf_gap,
    predicted_rate,
    quant_gap_bound,
    rf_power_consumption,
    selection_gap,
    svd_phase_gap,
    truncated_rayleigh_mean,
)

from oracles import thresholded_rayleigh_mean_quad


class TestPhaseOnlyGap:
    def test_k4(self):
        assert svd_phase_gap(4) == pytest.approx(2.7880309642214502, abs=1e-12)

    def test_k1(self):
        assert svd_phase_gap(1) == pytest.approx(0.6970077410553626, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            svd_phase_gap(0)


class TestMixedGap:
    def test_k3_m5(self):
        assert mixed_gap(3, 5) == pytest.approx(0.6970077410553626, abs=1e-12)

    def test_m_2k_closes_gap(self):
        assert mixed_gap(4, 8) == 0.0

    def test_m_k_boundary(self):
        assert mixed_gap(5, 5) == svd_phase_gap(5)

    def test_domain(self):
        with pytest.raises(DimensionError):
            mixed_gap(3, 7)


class TestQuantGapBound:
    def test_b2_exact_quarter(self):
        # cos^4(pi/4) = 1/4, so the bound is -4 log2(1/4) = 8
        assert quant_gap_bound(4, 2) == pytest.approx(8.0, abs=1e-9)

    def test_b3(self):
        assert quant_gap_bound(4, 3) == pytest.approx(1.8275735746911044, abs=1e-12)

    def test_fine_grid_limit(self):
        assert quant_gap_bound(4, 14) <= 1e-4

    def test_single_bit_degenerates(self):
        assert math.isinf(quant_gap_bound(4, 1))

    def test_strictly_decreasing(self):
        vals = [quant_gap_bound(4, b) for b in range(1, 15)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            quant_gap_bound(4, 0)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_bits_range_is_phase_steps(self, bits):
        with pytest.raises(ValueError, match=r"^digital resolution needs 1 <= bits <= 16$"):
            quant_gap_bound(4, bits)

    def test_half_step_is_the_old_formula_bitwise(self):
        for bits in range(2, 17):
            half_step = 2.0 * math.pi / 2 ** (bits + 1)
            assert quant_gap_bound(4, bits) == -4 * math.log2(math.cos(half_step) ** 4)

    def test_phase_step_has_one_owner(self):
        assert beamsim.phase_step is beamformers.phase_step is closed_form.phase_step


class TestMultiuserGap:
    def test_k4(self):
        assert mu_zf_gap(4) == pytest.approx(1.3940154821107251, abs=1e-12)

    def test_k1(self):
        assert mu_zf_gap(1) == pytest.approx(0.3485038705276813, abs=1e-12)

    def test_half_of_p2p(self):
        for k in (1, 2, 4, 7):
            assert 2 * mu_zf_gap(k) == pytest.approx(svd_phase_gap(k), abs=1e-12)


class TestSelectionChain:
    def test_alpha_values(self):
        assert alpha_from_beta(0.0) == 0.0
        assert alpha_from_beta(50.0) == pytest.approx(0.8325546111576977, abs=1e-12)
        assert alpha_from_beta(25.0) == pytest.approx(0.5363600213026516, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            alpha_from_beta(100.0)

    def test_mean_at_zero(self):
        assert truncated_rayleigh_mean(0.0) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    def test_mean_truncates_everything(self):
        assert truncated_rayleigh_mean(6.0) <= 1e-7

    @pytest.mark.parametrize("alpha", [0.25, 0.5363600213026516, 0.8325546111576977, 1.5, 3.0])
    def test_mean_matches_quadrature_oracle(self, alpha):
        assert truncated_rayleigh_mean(alpha) == pytest.approx(
            thresholded_rayleigh_mean_quad(alpha), abs=1e-12
        )

    def test_mean_frozen_value(self):
        assert truncated_rayleigh_mean(0.8325546111576977) == pytest.approx(
            0.6281138038233073, abs=1e-12
        )

    def test_mean_strictly_decreasing(self):
        grid = np.linspace(0.0, 4.0, 400)
        vals = [truncated_rayleigh_mean(float(a)) for a in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gap_beta_zero_reduces_exactly(self):
        for k in (1, 2, 4, 6):
            assert selection_gap(k, 0.0) == pytest.approx(svd_phase_gap(k), abs=1e-12)

    def test_gap_frozen_values(self):
        # from the quadrature oracle chain
        assert selection_gap(4, 25.0) == pytest.approx(1.8473057333234584, abs=1e-12)
        assert selection_gap(4, 50.0) == pytest.approx(2.734433914062631, abs=1e-12)

    def test_beta25_below_beta0(self):
        assert selection_gap(4, 25.0) < selection_gap(4, 0.0)

    def test_beta50_close_to_beta0(self):
        assert abs(selection_gap(4, 50.0) - selection_gap(4, 0.0)) <= 0.06

    def test_domain(self):
        with pytest.raises(ValueError):
            selection_gap(4, 100.0)


class TestPowerModel:
    def test_all_shifters_on_no_switches(self):
        params = PowerModelParams(p_ps_mw=111.0, p_s_mw=0.0, m=4, n_t=64, beta_percent=0.0)
        assert rf_power_consumption(params) == 28.416

    def test_half_off_with_switches(self):
        params = PowerModelParams(p_ps_mw=111.0, p_s_mw=1.0, m=4, n_t=64, beta_percent=50.0)
        assert rf_power_consumption(params) == 14.464

    def test_all_off_leaves_switches(self):
        params = PowerModelParams(p_ps_mw=111.0, p_s_mw=1.0, m=4, n_t=64, beta_percent=100.0)
        assert rf_power_consumption(params) == pytest.approx(0.256, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModelParams(p_ps_mw=-1.0, p_s_mw=0.0, m=4, n_t=64, beta_percent=0.0)


class TestPredictedRate:
    def test_zero_gap(self):
        assert predicted_rate(40.0, 0.0) == 40.0

    def test_arithmetic(self):
        assert predicted_rate(40.0, 2.788) == pytest.approx(37.212, abs=1e-12)

    def test_negative_permitted(self):
        assert predicted_rate(1.0, 2.788) < 0.0


class TestConsistencyWeb:
    def test_exact_identities(self):
        for k in (1, 2, 3, 4, 6, 8):
            assert abs(mixed_gap(k, k) - svd_phase_gap(k)) <= 1e-12
            assert abs(mixed_gap(k, 2 * k)) <= 1e-12
            assert abs(selection_gap(k, 0.0) - svd_phase_gap(k)) <= 1e-12
            assert abs(2 * mu_zf_gap(k) - svd_phase_gap(k)) <= 1e-12

    def test_nonnegative_on_domain(self):
        for k in (1, 2, 4, 8):
            assert svd_phase_gap(k) >= 0
            assert mu_zf_gap(k) >= 0
            for m in range(k, 2 * k + 1):
                assert mixed_gap(k, m) >= 0
            for beta in (0.0, 10.0, 25.0, 50.0, 75.0, 90.0):
                assert selection_gap(k, beta) >= 0
            for bits in range(2, 10):
                assert quant_gap_bound(k, bits) >= 0
