"""Spectral-efficiency evaluation: waterfilling, capacity, and log-det rates.

The evaluators derive the normalization factors from the beamformer's
own matrices, so it cannot smuggle in extra transmit power; the
log-det argument is whitened against the combiner's noise covariance and
symmetrized before eigendecomposition so every log term is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelRealization, channel_svd
from .errors import DimensionError, SingularMatrixError

if TYPE_CHECKING:
    from .beamformers import HybridBeamformer

# noise covariance above this condition number is treated as singular
COND_LIMIT = 1e12


@dataclass(frozen=True)
class RateReport:
    """One rate measurement in bits/s/Hz with its per-stream breakdown."""

    rate_bits: float
    per_stream: np.ndarray
    noise_cov_condition: float


def waterfill(gains, rho: float) -> np.ndarray:
    """Optimal split of a unit power budget over parallel channels with power
    gains ``gains``.

    Returns p with p_i = max(0, mu - 1/(rho g_i)) and sum(p) = 1, computed
    by the exact sorted water-level formula (no iteration).
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a nonempty 1-D vector")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and nonnegative")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if not np.any(g > 0.0):
        raise ValueError("waterfilling needs at least one positive gain")

    p = np.zeros_like(g)
    idx = np.flatnonzero(g > 0.0)
    inv = 1.0 / (rho * g[idx])
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    # work relative to the smallest noise-to-gain ratio so the water level
    # keeps full precision even when 1/(rho g) dwarfs the budget
    shifted = inv_sorted - inv_sorted[0]
    csum = np.cumsum(shifted)
    active = shifted.size
    while active > 1:
        level = (1.0 + csum[active - 1]) / active
        if level > shifted[active - 1]:
            break
        active -= 1
    level = (1.0 + csum[active - 1]) / active
    p[idx[order[:active]]] = level - shifted[:active]
    return p


def _checked_condition(a: np.ndarray, name: str) -> float:
    """Condition number of ``a``; SingularMatrixError, naming ``name``, when it
    is not finite or exceeds COND_LIMIT."""
    cond = float(np.linalg.cond(a))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"{name} condition number {cond:.3e}")
    return cond


def _gamma(mat: np.ndarray) -> float:
    """Normalization factor trace(M^H M) / K of a K-column precoder or combiner."""
    return float(np.trace(mat.conj().T @ mat).real) / mat.shape[1]


def capacity_p2p(chan: ChannelRealization, k: int, rho: float) -> RateReport:
    """Point-to-point capacity with k streams: waterfilling over sigma_k^2."""
    gains = channel_svd(chan, k).sigma ** 2
    p = waterfill(gains, rho)
    per = np.log2(1.0 + rho * p * gains)
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=1.0,
    )


def achievable_rate(chan: ChannelRealization, bf: "HybridBeamformer", rho: float) -> RateReport:
    """Log-det rate of a point-to-point beamformer over the given channel.

    Evaluates log2 det(I + rho/(Gt Gr) Rn^-1 W^H H F P F^H H^H W) with
    Rn = W^H W / Gr and both normalization factors derived from the
    supplied matrices.  ``W^H H F`` comes from ``chan.project``, so a
    geometric draw is evaluated from its path factors without forming H.
    """
    if bf.w_rf is None or bf.w_b is None:
        raise DimensionError("point-to-point rate needs receive-side matrices")
    f = bf.f_rf @ bf.f_b
    w = bf.w_rf @ bf.w_b
    if chan.shape != (w.shape[0], f.shape[0]):
        raise DimensionError(
            f"channel {chan.shape} inconsistent with precoder {f.shape} / combiner {w.shape}"
        )
    k = f.shape[1]
    if w.shape[1] != k or bf.power.shape != (k,):
        raise DimensionError("stream counts of F, W and power allocation disagree")

    gamma_t, gamma_r = _gamma(f), _gamma(w)
    rn = (w.conj().T @ w) / gamma_r
    cond = _checked_condition(rn, "noise covariance")
    try:
        lchol = np.linalg.cholesky(rn)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("noise covariance is not positive definite") from exc

    m_eff = chan.project(w, f) * np.sqrt(np.maximum(bf.power, 0.0))[None, :]
    t = np.linalg.solve(lchol, m_eff) * math.sqrt(rho / (gamma_t * gamma_r))
    lam = np.linalg.eigvalsh(t @ t.conj().T)[::-1]
    per = np.log2(1.0 + np.maximum(lam, 0.0))
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=cond,
    )


def sum_rate_mu(chan: ChannelRealization, bf: "HybridBeamformer", rho: float) -> RateReport:
    """Downlink sum rate with per-user decoding and interference as noise.

    The effective channel is E = H F / sqrt(Gt); user k sees
    SINR_k = (rho/K) |E_kk|^2 / (1 + (rho/K) sum_{j != k} |E_kj|^2).
    """
    if bf.w_rf is not None or bf.w_b is not None:
        raise DimensionError("multiuser sum rate expects no receive-side matrices")
    h = chan.h
    f = bf.f_rf @ bf.f_b
    k = f.shape[1]
    if h.shape[0] != k:
        raise DimensionError(
            f"{h.shape[0]} single-antenna users but {k} streams; need one stream per user"
        )
    if h.shape[1] != f.shape[0]:
        raise DimensionError(f"channel {h.shape} inconsistent with precoder {f.shape}")

    e2 = np.abs(h @ f) ** 2 / _gamma(f)
    sig = np.diag(e2)
    interf = e2.sum(axis=1) - sig
    scale = rho / k
    per = np.log2(1.0 + scale * sig / (1.0 + scale * interf))
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=1.0,
    )
