"""Hybrid beamformer constructions.

All RF-constrained designs here derive directly from the thin SVD of the
channel: the phase-only design copies the phases of the singular vectors,
the double-chain design splits each singular-vector entry across two unit-
modulus shifters so the pair sums back exactly, and the selection design
zeroes shifters whose singular-vector entry falls below a threshold.
Power allocations are always waterfilled over the per-stream gains of the
actual (finite-size) effective channel, not the asymptotic values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, channel_svd
from .closed_form import alpha_from_beta
from .errors import DegenerateColumnError, DimensionError
from .linalg import SvdResult
from .rates import _checked_condition, _gamma, waterfill

@dataclass(frozen=True)
class PhaseResolution:
    """Digital phase shifters on a grid of 2**bits phases."""

    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= 16:
            raise ValueError("digital resolution needs 1 <= bits <= 16")


@dataclass(frozen=True)
class SelectionPolicy:
    """Turn off the weakest ``beta_percent`` of phase shifters on average."""

    beta_percent: float

    def __post_init__(self):
        if not 0.0 <= self.beta_percent < 100.0:
            raise ValueError("beta_percent must lie in [0, 100)")


@dataclass(frozen=True)
class HybridBeamformer:
    """A complete transmit/receive beamforming configuration.

    ``f_rf`` (n_t x m) and ``f_b`` (m x k) factor the precoder, with the
    receive side optional for multiuser downlink use.  ``power`` holds the
    per-stream fractions of the unit budget.  ``digital`` flags
    unconstrained designs whose ``f_rf`` entries are not unit modulus.
    The normalization factors ``gamma_t``/``gamma_r`` are derived from the
    matrices, so they stay right under ``dataclasses.replace``.
    """

    f_rf: np.ndarray
    f_b: np.ndarray
    power: np.ndarray
    w_rf: np.ndarray | None = None
    w_b: np.ndarray | None = None
    digital: bool = False

    def precoder(self) -> np.ndarray:
        return self.f_rf @ self.f_b

    def combiner(self) -> np.ndarray | None:
        if self.w_rf is None or self.w_b is None:
            return None
        return self.w_rf @ self.w_b

    @property
    def gamma_t(self) -> float:
        """trace(F^H F) / K."""
        return _gamma(self.precoder())

    @property
    def gamma_r(self) -> float:
        """trace(W^H W) / K, or 1.0 without a receive side."""
        w = self.combiner()
        return 1.0 if w is None else _gamma(w)


def _check_rho(rho: float) -> None:
    if not rho > 0.0:
        raise ValueError("rho must be a positive linear SNR")


def _p2p_design(
    chan: ChannelRealization, f_rf, f_b, w_rf, w_b, rho, digital=False
) -> HybridBeamformer:
    """Point-to-point design with power waterfilled over |diag of the
    normalized effective channel|^2."""
    f = f_rf @ f_b
    w = w_rf @ w_b
    e = chan.project(w, f) / math.sqrt(_gamma(f) * _gamma(w))
    power = waterfill(np.abs(np.diag(e)) ** 2, rho)
    return HybridBeamformer(f_rf=f_rf, f_b=f_b, power=power, w_rf=w_rf, w_b=w_b, digital=digital)


def _svd_design(chan, svd: SvdResult, side, rho, digital=False) -> HybridBeamformer:
    """Point-to-point design from SVD factors of ``chan``: ``side`` maps the
    right singular vectors to the transmit (RF, baseband) pair, then the
    left ones to the receive pair."""
    f_rf, f_b = side(svd.v)
    w_rf, w_b = side(svd.u)
    return _p2p_design(chan, f_rf, f_b, w_rf, w_b, rho, digital)


def digital_svd_beamformer(chan: ChannelRealization, k: int, rho: float) -> HybridBeamformer:
    """Unconstrained SVD design: F = V_{1:k}, W = U_{1:k}, capacity-achieving."""
    _check_rho(rho)
    svd = channel_svd(chan, k)
    eye = np.eye(k, dtype=complex)
    return _svd_design(chan, svd, lambda cols: (cols, eye), rho, digital=True)


def _paired_phase_columns(x: np.ndarray) -> np.ndarray:
    """Two unit-modulus columns per input column, summing back to 2x.

    Uses |x| e^(j ang) = (e^(j(ang+acos|x|)) + e^(j(ang-acos|x|))) / 2 with
    the principal acos branch in [0, pi]; valid because |x| <= 1 for
    entries of orthonormal columns.
    """
    ang = np.angle(x)
    off = np.arccos(np.clip(np.abs(x), 0.0, 1.0))
    out = np.empty((x.shape[0], 2 * x.shape[1]), dtype=complex)
    out[:, 0::2] = np.exp(1j * (ang + off))
    out[:, 1::2] = np.exp(1j * (ang - off))
    return out


def _mixed_rf(cols: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """RF matrix and baseband mixer: first n_pairs streams get shifter pairs,
    the rest phase-only single chains.

    When pair and phase-only columns coexist, the pair blocks are scaled so
    every composite column carries the same norm as a phase-only column
    (sqrt(n)); the rate is invariant to the common scale, but a scalar
    normalization over unequal column norms would starve the exactly
    factored streams of transmit power.
    """
    n, k = cols.shape
    m = k + n_pairs
    rf = np.empty((n, m), dtype=complex)
    rf[:, : 2 * n_pairs] = _paired_phase_columns(cols[:, :n_pairs])
    rf[:, 2 * n_pairs :] = np.exp(1j * np.angle(cols[:, n_pairs:]))
    pair_weight = 0.5 if n_pairs == k else 0.5 * math.sqrt(n)
    mixer = np.zeros((m, k), dtype=complex)
    for j in range(n_pairs):
        mixer[2 * j, j] = pair_weight
        mixer[2 * j + 1, j] = pair_weight
    for j in range(n_pairs, k):
        mixer[n_pairs + j, j] = 1.0
    return rf, mixer


def mixed_beamformer(chan: ChannelRealization, k: int, m: int, rho: float) -> HybridBeamformer:
    """Hybrid design for k <= m <= 2k RF chains per side.

    The strongest m - k streams each use a two-shifter pair that
    reproduces the singular-vector column exactly; the remaining 2k - m
    streams use a single phase-only column each.
    """
    _check_rho(rho)
    if not k <= m <= 2 * k:
        raise DimensionError(f"need k <= m <= 2k, got k={k}, m={m}")
    return mixed_from_svd(chan, channel_svd(chan, k), m - k, rho)


def mixed_from_svd(
    chan: ChannelRealization, svd: SvdResult, n_pairs: int, rho: float
) -> HybridBeamformer:
    """The mixed design built from given SVD factors of ``chan``, with the
    strongest ``n_pairs`` streams on shifter pairs."""
    return _svd_design(chan, svd, lambda cols: _mixed_rf(cols, n_pairs), rho)


def svd_phase_beamformer(chan: ChannelRealization, k: int, rho: float) -> HybridBeamformer:
    """Phase-only RF design with m = k: each shifter copies the phase of the
    matching singular-vector entry; baseband stays identity."""
    return mixed_beamformer(chan, k, k, rho)


def double_rf_beamformer(chan: ChannelRealization, k: int, rho: float) -> HybridBeamformer:
    """Two RF chains per stream (m = 2k): exact factorization of the SVD
    precoder from unit-modulus shifter pairs, so the digital rate is met."""
    return mixed_beamformer(chan, k, 2 * k, rho)


def _snap_phases(x: np.ndarray, bits: int) -> np.ndarray:
    """Round active entries to the closest grid phase by plain absolute
    difference over [0, 2pi).

    The grid is {0, 2pi/2^bits, ..., (2^bits - 1) 2pi/2^bits}; phases past
    the last point round down to it rather than wrapping to 0, and
    half-step ties go to the smaller grid angle.
    """
    step = 2.0 * math.pi / (1 << bits)
    ang = np.mod(np.angle(x), 2.0 * math.pi)
    idx = np.minimum(np.ceil(ang / step - 0.5), (1 << bits) - 1)
    out = np.exp(1j * step * idx)
    out[x == 0] = 0.0
    return out


def quantize_rf(
    chan: ChannelRealization, bf: HybridBeamformer, res: PhaseResolution, rho: float
) -> HybridBeamformer:
    """Replace every active RF phase with its nearest digital grid point and
    re-waterfill over the resulting effective gains."""
    _check_rho(rho)
    if bf.digital:
        raise ValueError("cannot quantize an unconstrained (digital) beamformer")
    if bf.w_rf is None or bf.w_b is None:
        raise DimensionError("quantize_rf supports point-to-point beamformers")
    f_rf = _snap_phases(bf.f_rf, res.bits)
    w_rf = _snap_phases(bf.w_rf, res.bits)
    return _p2p_design(chan, f_rf, bf.f_b, w_rf, bf.w_b, rho)


def select_phase_shifters(
    chan: ChannelRealization, k: int, rho: float, policy: SelectionPolicy
) -> HybridBeamformer:
    """Phase-only design with the weakest shifters switched off.

    A transmit shifter stays active only where sqrt(n_t) |V_entry| exceeds
    the policy threshold, and likewise at the receiver with sqrt(n_r) |U|;
    normalization factors come from the actual masked matrices.  Raises
    DegenerateColumnError if any RF column loses all its shifters.
    """
    _check_rho(rho)
    svd = channel_svd(chan, k)
    alpha = alpha_from_beta(policy.beta_percent)
    eye = np.eye(k, dtype=complex)

    def masked_phases(cols):
        keep = math.sqrt(cols.shape[0]) * np.abs(cols) > alpha
        if not keep.any(axis=0).all():
            raise DegenerateColumnError(f"beta={policy.beta_percent}% disabled an entire RF column")
        return np.where(keep, np.exp(1j * np.angle(cols)), 0.0), eye

    return _svd_design(chan, svd, masked_phases, rho)


def _require_mu_shape(chan: ChannelRealization, k: int) -> None:
    if chan.shape[0] != k:
        raise DimensionError(
            f"multiuser downlink needs n_r = k single-antenna users, "
            f"got n_r={chan.shape[0]}, k={k}"
        )


def _checked_inv(a: np.ndarray, name: str) -> np.ndarray:
    _checked_condition(a, name)
    return np.linalg.inv(a)


def mu_zf_hybrid(chan: ChannelRealization, k: int, rho: float) -> HybridBeamformer:
    """Multiuser hybrid: phase-only RF columns, baseband inverts H F_RF.

    The effective channel H F_RF F_B / sqrt(Gt) is the identity up to the
    power normalization, so each user sees an interference-free link.
    """
    _check_rho(rho)
    _require_mu_shape(chan, k)
    f_rf = np.exp(1j * np.angle(channel_svd(chan, k).v))
    f_b = _checked_inv(chan.h @ f_rf, "H F_RF")
    return HybridBeamformer(f_rf=f_rf, f_b=f_b, power=np.full(k, 1.0 / k))


def mu_zf_digital(chan: ChannelRealization, k: int, rho: float) -> HybridBeamformer:
    """Unconstrained zero-forcing: F = H^H (H H^H)^-1, the digital baseline."""
    _check_rho(rho)
    _require_mu_shape(chan, k)
    f = chan.h.conj().T @ _checked_inv(chan.h @ chan.h.conj().T, "H H^H")
    return HybridBeamformer(
        f_rf=f, f_b=np.eye(k, dtype=complex), power=np.full(k, 1.0 / k), digital=True
    )
