"""Closed-form rate-gap predictions and the phase-shifter-network power model.

These are the large-array, high-SNR limits the Monte-Carlo harness is
validated against.  All logarithms are base 2, and the selection gap is
written so that it reduces exactly to the phase-only gap at beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError

_LOG2_QUARTER_PI = math.log2(math.pi / 4.0)


def _need_streams(k: int) -> None:
    """Raise ValueError unless there is at least one stream."""
    if k < 1:
        raise ValueError("k must be >= 1")


def _paired_streams(k: int, m: int) -> int:
    """The m - k streams of k that get a two-shifter pair from m RF chains;
    DimensionError outside k <= m <= 2k."""
    if not k <= m <= 2 * k:
        raise DimensionError(f"need k <= m <= 2k, got k={k}, m={m}")
    return m - k


def svd_phase_gap(k: int) -> float:
    """Capacity minus the phase-only hybrid rate: -2k log2(pi/4) bits/s/Hz."""
    _need_streams(k)
    return -2.0 * k * _LOG2_QUARTER_PI


def mixed_gap(k: int, m: int) -> float:
    """Gap with m RF chains, k <= m <= 2k: -2(2k - m) log2(pi/4)."""
    _need_streams(k)
    return -2.0 * (k - _paired_streams(k, m)) * _LOG2_QUARTER_PI


def phase_step(bits: int) -> float:
    """The step 2 pi / 2^bits of a grid of ``bits``-bit digital phase
    shifters; bits outside 1..16 raise ValueError."""
    if not 1 <= bits <= 16:
        raise ValueError("digital resolution needs 1 <= bits <= 16")
    return 2.0 * math.pi / (1 << bits)


def quant_gap_bound(k: int, bits: int) -> float:
    """Upper bound on the extra loss from bits-wide phase grids.

    Returns -k log2(cos^4(phase_step(bits) / 2)), a half-step error on
    every phase; infinite at bits = 1 where that error reaches pi/2 and
    the cosine bound degenerates.
    """
    _need_streams(k)
    half_step = phase_step(bits) / 2.0
    if bits == 1:
        return math.inf
    return -k * math.log2(math.cos(half_step) ** 4)


def mu_zf_gap(k: int) -> float:
    """Multiuser sum-capacity minus the hybrid ZF sum rate: -k log2(pi/4).

    Half the point-to-point gap, since only the transmitter carries an RF
    beamformer in the downlink.
    """
    _need_streams(k)
    return -k * _LOG2_QUARTER_PI


def alpha_from_beta(beta_percent: float) -> float:
    """Selection threshold whose Rayleigh CDF mass equals beta percent."""
    if not 0.0 <= beta_percent < 100.0:
        raise ValueError("beta_percent must lie in [0, 100)")
    return math.sqrt(-math.log(1.0 - beta_percent / 100.0))


def truncated_rayleigh_mean(alpha: float) -> float:
    """Mean of a Rayleigh(1/sqrt(2)) amplitude zeroed below ``alpha``.

    Equals sqrt(pi)/2 + alpha e^(-alpha^2) - (sqrt(pi)/2) erf(alpha).
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    half_sqrt_pi = math.sqrt(math.pi) / 2.0
    return half_sqrt_pi + alpha * math.exp(-alpha * alpha) - half_sqrt_pi * math.erf(alpha)


def selection_gap(k: int, beta_percent: float) -> float:
    """Capacity minus the selection-scheme rate with beta percent off.

    2k log2(1 - beta) - 4k log2(E[thresholded amplitude]); beta = 0
    recovers svd_phase_gap(k) exactly.
    """
    _need_streams(k)
    alpha = alpha_from_beta(beta_percent)
    frac_on = 1.0 - beta_percent / 100.0
    return 2.0 * k * math.log2(frac_on) - 4.0 * k * math.log2(truncated_rayleigh_mean(alpha))


@dataclass(frozen=True)
class PowerModelParams:
    """Phase-shifter-network power model inputs (component powers in mW)."""

    p_ps_mw: float
    p_s_mw: float
    m: int
    n_t: int
    beta_percent: float

    def __post_init__(self):
        if self.p_ps_mw < 0.0 or self.p_s_mw < 0.0:
            raise ValueError("component powers must be >= 0")
        if self.m < 1 or self.n_t < 1:
            raise ValueError("m and n_t must be >= 1")
        if not 0.0 <= self.beta_percent <= 100.0:
            raise ValueError("beta_percent must lie in [0, 100]")


def rf_power_consumption(params: PowerModelParams) -> float:
    """Total RF network power in watts: m n_t ((1 - beta/100) P_PS + P_S)."""
    frac_on = 1.0 - params.beta_percent / 100.0
    return params.m * params.n_t * (frac_on * params.p_ps_mw + params.p_s_mw) / 1000.0


def predicted_rate(c: float, gap: float) -> float:
    """Analytic rate curve: measured capacity minus the closed-form gap.

    May go negative at low SNR where the high-SNR asymptotics fail;
    callers flag rather than clamp such values.
    """
    return c - gap
