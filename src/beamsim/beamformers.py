"""Hybrid beamformer constructions.

All RF-constrained designs here derive directly from the thin SVD of the
channel: the phase-only design copies the phases of the singular vectors,
the double-chain design splits each singular-vector entry across two unit-
modulus shifters so the pair sums back exactly, and the selection design
zeroes shifters whose singular-vector entry falls below a threshold.
Power allocations are always waterfilled over the per-stream gains of the
actual (finite-size) effective channel, not the asymptotic values.
Builders take the channel's factors (``channel.channel_svd``) as an
argument and never factor the channel themselves.

Each builder has a stacked twin (``*_batch``) that builds the designs of
a stack of draws (a stacked ``ChannelRealization``) at once from stacked
factors.  Both run the same helpers, which work over the last two axes,
so a draw's design is bitwise the same either way.  Where a builder
raises for a draw, its twin drops that draw and returns a mask of the
draws it kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .closed_form import alpha_from_beta
from .errors import DegenerateColumnError, DimensionError
from .linalg import SvdResult, adjoint, kept_rows
from .rates import _checked_condition, _conditioned, _gamma, waterfill

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
    matrices, so they stay right under ``dataclasses.replace``.  A
    ``*_batch`` builder's design holds a stack of designs, each array with
    a leading axis over the draws.
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
        return float(_gamma(self.precoder()))

    @property
    def gamma_r(self) -> float:
        """trace(W^H W) / K, or 1.0 without a receive side."""
        w = self.combiner()
        return 1.0 if w is None else float(_gamma(w))


def _stream_gains(e: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|diag of the normalized effective channel|^2, from ``e = W^H H F``."""
    e = e / np.sqrt(_gamma(f) * _gamma(w))[..., None, None]
    return np.abs(e.diagonal(axis1=-2, axis2=-1)) ** 2


def _p2p_design(
    chan: ChannelRealization, f_rf, f_b, w_rf, w_b, rho, digital=False
) -> HybridBeamformer:
    """Point-to-point design with power waterfilled over |diag of the
    normalized effective channel|^2."""
    f = f_rf @ f_b
    w = w_rf @ w_b
    power = waterfill(_stream_gains(chan.project(w, f), f, w), rho)
    return HybridBeamformer(f_rf=f_rf, f_b=f_b, power=power, w_rf=w_rf, w_b=w_b, digital=digital)


def _p2p_design_batch(chan, f_rf, f_b, w_rf, w_b, rho, digital=False):
    """``_p2p_design`` over a stack of draws: the designs of the draws whose
    stream gains are all finite and positive, and that mask."""
    f = f_rf @ f_b
    w = w_rf @ w_b
    gains = _stream_gains(chan.project(w, f), f, w)
    ok = (np.isfinite(gains) & (gains > 0.0)).all(axis=-1)
    f_rf, f_b, w_rf, w_b, gains = kept_rows(ok, f_rf, f_b, w_rf, w_b, gains)
    bf = HybridBeamformer(f_rf, f_b, waterfill(gains, rho), w_rf, w_b, digital)
    return bf, ok


def _within(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The mask over all draws of ``inner``, a mask over the draws ``outer`` kept."""
    out = outer.copy()
    out[outer] = inner
    return out


def _svd_design(chan, svd: SvdResult, side, rho, digital=False) -> HybridBeamformer:
    """Point-to-point design from SVD factors of ``chan``: ``side`` maps the
    right singular vectors to the transmit (RF, baseband) pair, then the
    left ones to the receive pair."""
    f_rf, f_b = side(svd.v)
    w_rf, w_b = side(svd.u)
    return _p2p_design(chan, f_rf, f_b, w_rf, w_b, rho, digital)


def _svd_design_batch(chan, svd: SvdResult, side, rho, digital=False):
    """``_svd_design`` over a stack of draws and their stacked factors."""
    f_rf, f_b = side(svd.v)
    w_rf, w_b = side(svd.u)
    return _p2p_design_batch(chan, f_rf, f_b, w_rf, w_b, rho, digital)


def _shared(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a`` for each matrix of ``cols``: ``a`` itself beside one matrix, a
    read-only broadcast of it beside a stack."""
    return a if cols.ndim == 2 else np.broadcast_to(a, cols.shape[:-2] + a.shape)


def _eye(cols: np.ndarray) -> np.ndarray:
    """The identity baseband for ``cols``."""
    return _shared(np.eye(cols.shape[-1], dtype=complex), cols)


def _digital_side(cols: np.ndarray):
    return cols, _eye(cols)


def digital_svd_beamformer(
    chan: ChannelRealization, svd: SvdResult, rho: float
) -> HybridBeamformer:
    """Unconstrained SVD design: F = V_{1:k}, W = U_{1:k}, capacity-achieving."""
    return _svd_design(chan, svd, _digital_side, rho, digital=True)


def digital_svd_beamformer_batch(chan, svd: SvdResult, rho: float):
    """``digital_svd_beamformer`` of each draw of a stack."""
    return _svd_design_batch(chan, svd, _digital_side, rho, digital=True)


def _phase_only(x: np.ndarray) -> np.ndarray:
    """Unit-modulus entries with the phases of ``x``."""
    return np.exp(1j * np.angle(x))


def _paired_phase_columns(x: np.ndarray) -> np.ndarray:
    """Two unit-modulus columns per input column, summing back to 2x.

    Uses |x| e^(j ang) = (e^(j(ang+acos|x|)) + e^(j(ang-acos|x|))) / 2 with
    the principal acos branch in [0, pi]; valid because |x| <= 1 for
    entries of orthonormal columns.  Over the last two axes.
    """
    ang = np.angle(x)
    off = np.arccos(np.clip(np.abs(x), 0.0, 1.0))
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],), dtype=complex)
    out[..., 0::2] = np.exp(1j * (ang + off))
    out[..., 1::2] = np.exp(1j * (ang - off))
    return out


def _mixed_rf(cols: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """RF matrix and baseband mixer: first n_pairs streams get shifter pairs,
    the rest phase-only single chains.  Over the last two axes.

    When pair and phase-only columns coexist, the pair blocks are scaled so
    every composite column carries the same norm as a phase-only column
    (sqrt(n)); the rate is invariant to the common scale, but a scalar
    normalization over unequal column norms would starve the exactly
    factored streams of transmit power.
    """
    n, k = cols.shape[-2:]
    m = k + n_pairs
    rf = np.empty(cols.shape[:-1] + (m,), dtype=complex)
    if n_pairs:
        rf[..., : 2 * n_pairs] = _paired_phase_columns(cols[..., :n_pairs])
    if n_pairs < k:
        rf[..., 2 * n_pairs :] = _phase_only(cols[..., n_pairs:])
    pair_weight = 0.5 if n_pairs == k else 0.5 * math.sqrt(n)
    mixer = np.zeros((m, k), dtype=complex)
    for j in range(n_pairs):
        mixer[2 * j, j] = pair_weight
        mixer[2 * j + 1, j] = pair_weight
    for j in range(n_pairs, k):
        mixer[n_pairs + j, j] = 1.0
    return rf, _shared(mixer, cols)


def _mixed_side(svd: SvdResult, m: int):
    k = svd.v.shape[-1]
    if not k <= m <= 2 * k:
        raise DimensionError(f"need k <= m <= 2k, got k={k}, m={m}")
    return lambda cols: _mixed_rf(cols, m - k)


def mixed_beamformer(
    chan: ChannelRealization, svd: SvdResult, m: int, rho: float
) -> HybridBeamformer:
    """Hybrid design for k <= m <= 2k RF chains per side, from the rank-k
    factors ``svd`` of ``chan``.

    The strongest m - k streams each use a two-shifter pair that
    reproduces the singular-vector column exactly; the remaining 2k - m
    streams use a single phase-only column each.  So m = k is the
    phase-only design (each shifter copies the phase of its singular-vector
    entry, baseband identity), and m = 2k factors the SVD precoder exactly
    and meets the digital rate.
    """
    return _svd_design(chan, svd, _mixed_side(svd, m), rho)


def mixed_beamformer_batch(chan, svd: SvdResult, m: int, rho: float):
    """``mixed_beamformer`` of each draw of a stack."""
    return _svd_design_batch(chan, svd, _mixed_side(svd, m), rho)


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
    if bf.digital:
        raise ValueError("cannot quantize an unconstrained (digital) beamformer")
    if bf.w_rf is None or bf.w_b is None:
        raise DimensionError("quantize_rf supports point-to-point beamformers")
    f_rf = _snap_phases(bf.f_rf, res.bits)
    w_rf = _snap_phases(bf.w_rf, res.bits)
    return _p2p_design(chan, f_rf, bf.f_b, w_rf, bf.w_b, rho)


def quantize_rf_batch(chan, bf: HybridBeamformer, res: PhaseResolution, rho: float):
    """``quantize_rf`` over a stack of draws and their stacked designs."""
    f_rf = _snap_phases(bf.f_rf, res.bits)
    w_rf = _snap_phases(bf.w_rf, res.bits)
    return _p2p_design_batch(chan, f_rf, bf.f_b, w_rf, bf.w_b, rho)


def _selection_rf(cols: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Phase-only RF with the shifters at or below ``alpha`` switched off, and
    whether every column keeps one on.  Over the last two axes."""
    keep = math.sqrt(cols.shape[-2]) * np.abs(cols) > alpha
    rf = np.where(keep, _phase_only(cols), 0.0)
    return rf, keep.any(axis=-2).all(axis=-1)


def select_phase_shifters(
    chan: ChannelRealization, svd: SvdResult, rho: float, policy: SelectionPolicy
) -> HybridBeamformer:
    """Phase-only design from the factors ``svd`` of ``chan``, with the
    weakest shifters switched off.

    A transmit shifter stays active only where sqrt(n_t) |V_entry| exceeds
    the policy threshold, and likewise at the receiver with sqrt(n_r) |U|;
    normalization factors come from the actual masked matrices.  Raises
    DegenerateColumnError if any RF column loses all its shifters.
    """
    alpha = alpha_from_beta(policy.beta_percent)

    def masked_phases(cols):
        rf, live = _selection_rf(cols, alpha)
        if not live:
            raise DegenerateColumnError(f"beta={policy.beta_percent}% disabled an entire RF column")
        return rf, _eye(cols)

    return _svd_design(chan, svd, masked_phases, rho)


def select_phase_shifters_batch(chan, svd: SvdResult, rho: float, policy: SelectionPolicy):
    """``select_phase_shifters`` of each draw of a stack; a draw with a dead
    RF column is dropped."""
    alpha = alpha_from_beta(policy.beta_percent)
    (f_rf, f_live), (w_rf, w_live) = _selection_rf(svd.v, alpha), _selection_rf(svd.u, alpha)
    live = f_live & w_live
    chan, f_rf, w_rf = kept_rows(live, chan, f_rf, w_rf)
    eye = _eye(f_rf)
    bf, ok = _p2p_design_batch(chan, f_rf, eye, w_rf, eye, rho)
    return bf, _within(live, ok)


def _require_mu_shape(chan: ChannelRealization, k: int) -> None:
    if chan.shape[0] != k:
        raise DimensionError(
            f"multiuser downlink needs n_r = k single-antenna users, "
            f"got n_r={chan.shape[0]}, k={k}"
        )


def _checked_inv(a: np.ndarray, name: str) -> np.ndarray:
    _checked_condition(a, name)
    return np.linalg.inv(a)


def _inv_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the well-conditioned matrices of a stack, and that mask:
    the ones ``_checked_inv`` would not refuse."""
    ok = _conditioned(np.linalg.cond(a))
    (a,) = kept_rows(ok, a)
    return np.linalg.inv(a), ok


def _equal_power(k: int, shape=()) -> np.ndarray:
    return np.full(shape + (k,), 1.0 / k)


def mu_zf_hybrid(chan: ChannelRealization, svd: SvdResult) -> HybridBeamformer:
    """Multiuser hybrid from the rank-k factors ``svd`` of ``chan``: phase-only
    RF columns, baseband inverts H F_RF.

    The effective channel H F_RF F_B / sqrt(Gt) is the identity up to the
    power normalization, so each user sees an interference-free link.
    """
    k = svd.v.shape[1]
    _require_mu_shape(chan, k)
    f_rf = _phase_only(svd.v)
    f_b = _checked_inv(chan.h @ f_rf, "H F_RF")
    return HybridBeamformer(f_rf=f_rf, f_b=f_b, power=_equal_power(k))


def mu_zf_hybrid_batch(chan, svd: SvdResult):
    """``mu_zf_hybrid`` of each dense draw of a stack; an ill-conditioned
    H F_RF drops its draw."""
    f_rf = _phase_only(svd.v)
    f_b, ok = _inv_batch(chan.h @ f_rf)
    (f_rf,) = kept_rows(ok, f_rf)
    return HybridBeamformer(f_rf, f_b, _equal_power(f_b.shape[-1], f_b.shape[:-2])), ok


def mu_zf_digital(chan: ChannelRealization, k: int) -> HybridBeamformer:
    """Unconstrained zero-forcing: F = H^H (H H^H)^-1, the digital baseline."""
    _require_mu_shape(chan, k)
    f = adjoint(chan.h) @ _checked_inv(chan.h @ adjoint(chan.h), "H H^H")
    return HybridBeamformer(f_rf=f, f_b=_eye(f), power=_equal_power(k), digital=True)


def mu_zf_digital_batch(chan, k: int):
    """``mu_zf_digital`` of each dense draw of a stack; an ill-conditioned
    H H^H drops its draw."""
    h = chan.h
    gram_inv, ok = _inv_batch(h @ adjoint(h))
    (h,) = kept_rows(ok, h)
    f = adjoint(h) @ gram_inv
    return HybridBeamformer(f, _eye(f), _equal_power(k, f.shape[:-2]), digital=True), ok
