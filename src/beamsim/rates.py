"""Spectral-efficiency evaluation: waterfilling, capacity, and log-det rates.

The evaluators derive the normalization factors from the beamformer's
own matrices, so it cannot smuggle in extra transmit power; the
log-det argument is whitened against the combiner's noise covariance.
That argument is ``T T^H``, Hermitian by construction, and ``eigvalsh``
reads one triangle of it, so every eigenvalue and log term is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelRealization, dense_project
from .errors import DimensionError, SingularMatrixError
from .linalg import adjoint, kept_rows

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
    by the exact sorted water-level formula (no iteration).  ``gains`` may
    be a stack of gain vectors along leading axes; each fills on its own.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("gains must be a nonempty vector or a stack of them")
    if not (g.min(initial=0.0) >= 0.0 and g.max(initial=0.0) < math.inf):  # NaN fails
        raise ValueError("gains must be finite and nonnegative")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if not g.max(axis=-1).all():
        raise ValueError("waterfilling needs at least one positive gain")

    n = g.shape[-1]
    # A zero gain's 1/(rho g) is inf: it sorts last and never fills.
    inv = np.full(g.shape, math.inf)
    np.divide(1.0, rho * g, out=inv, where=g > 0.0)
    order = inv.argsort(axis=-1, kind="stable")
    # flat positions of each vector's entries in sorted order, and of its first
    row = np.arange(0, g.size, n).reshape(g.shape[:-1] + (1,))
    at = row + order
    inv_sorted = inv.ravel()[at]
    # work relative to the smallest noise-to-gain ratio so the water level
    # keeps full precision even when 1/(rho g) dwarfs the budget
    shifted = inv_sorted - inv_sorted[..., :1]
    count = np.arange(1, n + 1)
    level = (1.0 + shifted.cumsum(axis=-1)) / count  # with the first `count` filled
    # the largest count whose level clears its own ratio (1 always does)
    active = ((level > shifted) * count).max(axis=-1, keepdims=True)
    top = level.ravel()[row + active - 1]
    filled = np.subtract(top, shifted, out=np.zeros(g.shape), where=count <= active)
    p = np.empty(g.shape)
    p.put(at, filled)
    return p


def _conditioned(cond) -> np.ndarray:
    """Whether each condition number is finite and within ``COND_LIMIT``."""
    return np.isfinite(cond) & (cond <= COND_LIMIT)


def _checked_condition(a: np.ndarray, name: str) -> float:
    """Condition number of ``a``; SingularMatrixError, naming ``name``, when it
    is not finite or exceeds COND_LIMIT."""
    cond = float(np.linalg.cond(a))
    if not _conditioned(cond):
        raise SingularMatrixError(f"{name} condition number {cond:.3e}")
    return cond


def _gamma(mat: np.ndarray) -> np.ndarray:
    """Normalization factor trace(M^H M) / K of a K-column precoder or
    combiner, or of each matrix of a stack."""
    return (adjoint(mat) @ mat).trace(axis1=-2, axis2=-1).real / mat.shape[-1]


def _capacity_streams(sigma: np.ndarray, rho: float) -> np.ndarray:
    """Per-stream capacity bits over the singular values along the last axis:
    waterfilling over sigma^2."""
    gains = sigma**2
    return np.log2(1.0 + rho * waterfill(gains, rho) * gains)


def capacity_p2p(sigma: np.ndarray, rho: float) -> RateReport:
    """Point-to-point capacity over the channel's leading singular values
    ``sigma``, one stream each: waterfilling over sigma^2."""
    per = _capacity_streams(sigma, rho)
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=1.0,
    )


def capacity_bits(sigma: np.ndarray, rho: float) -> np.ndarray:
    """``capacity_p2p(...).rate_bits`` of each row of a stack of singular values."""
    return _capacity_streams(sigma, rho).sum(axis=-1)


def _noise_covariance(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Rn, Gr)``: the combiner's noise covariance W^H W / Gr and Gr."""
    gamma_r = _gamma(w)
    return (adjoint(w) @ w) / gamma_r[..., None, None], gamma_r


def _whitened_streams(lchol, proj, power, gamma_t, gamma_r, rho: float) -> np.ndarray:
    """Per-stream log2(1 + lambda) of the whitened effective channel, from the
    Cholesky factor of Rn and the projection ``W^H H F``."""
    m_eff = proj * np.sqrt(np.maximum(power, 0.0))[..., None, :]
    scale = np.sqrt(rho / (gamma_t * gamma_r))
    t = np.linalg.solve(lchol, m_eff) * scale[..., None, None]
    lam = np.linalg.eigvalsh(t @ adjoint(t))[..., ::-1]
    return np.log2(1.0 + np.maximum(lam, 0.0))


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

    rn, gamma_r = _noise_covariance(w)
    cond = _checked_condition(rn, "noise covariance")
    try:
        lchol = np.linalg.cholesky(rn)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("noise covariance is not positive definite") from exc

    per = _whitened_streams(lchol, chan.project(w, f), bf.power, _gamma(f), gamma_r, rho)
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=cond,
    )


def achievable_rate_bits(
    h: np.ndarray, bf: "HybridBeamformer", rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """``achievable_rate(...).rate_bits`` of a stack of point-to-point designs
    over a stack ``h`` of dense draws.

    Returns the rates of the draws whose noise covariance is well
    conditioned and that mask; ``achievable_rate`` raises
    SingularMatrixError for the others.  A failed Cholesky factorization
    raises LinAlgError for the whole stack.
    """
    f, w = bf.precoder(), bf.combiner()
    rn, gamma_r = _noise_covariance(w)
    ok = _conditioned(np.linalg.cond(rn))
    f, w, rn, gamma_r, power, h = kept_rows(ok, f, w, rn, gamma_r, bf.power, h)
    lchol = np.linalg.cholesky(rn)
    per = _whitened_streams(lchol, dense_project(h, w, f), power, _gamma(f), gamma_r, rho)
    return per.sum(axis=-1), ok


def _mu_streams(h: np.ndarray, f: np.ndarray, rho: float) -> np.ndarray:
    """Per-user log2(1 + SINR) of precoder ``f`` over ``h``, over the last two
    axes."""
    e2 = np.abs(h @ f) ** 2 / _gamma(f)[..., None, None]
    sig = e2.diagonal(axis1=-2, axis2=-1)
    interf = e2.sum(axis=-1) - sig
    scale = rho / f.shape[-1]
    return np.log2(1.0 + scale * sig / (1.0 + scale * interf))


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

    per = _mu_streams(h, f, rho)
    return RateReport(
        rate_bits=float(per.sum()),
        per_stream=per,
        noise_cov_condition=1.0,
    )


def sum_rate_mu_bits(h: np.ndarray, bf: "HybridBeamformer", rho: float) -> np.ndarray:
    """``sum_rate_mu(...).rate_bits`` of a stack of multiuser designs over a
    stack ``h`` of dense draws."""
    return _mu_streams(h, bf.precoder(), rho).sum(axis=-1)
