"""Spectral-efficiency evaluation: waterfilling, capacity, and log-det rates.

The evaluators derive the normalization factors from the beamformer's
own matrices, so it cannot smuggle in extra transmit power; the
log-det argument is whitened against the combiner's noise covariance.
That argument is ``T T^H``, Hermitian by construction, and ``eigvalsh``
reads one triangle of it, so every eigenvalue and log term is real.

Each evaluator (``*_streams``) measures a stack of draws and designs at
once and returns per-stream bits, one row per draw.  A design is only its
matrices, so the evaluator allots its power: ``p2p_streams`` waterfills
over the stream gains of the effective channel it rates, and
``mu_streams`` splits the budget evenly over the users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelRealization
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


def _gamma(mat: np.ndarray) -> np.ndarray:
    """Normalization factor trace(M^H M) / K of a K-column precoder or
    combiner, or of each matrix of a stack."""
    return (adjoint(mat) @ mat).trace(axis1=-2, axis2=-1).real / mat.shape[-1]


def capacity_streams(sigma: np.ndarray, rho: float) -> np.ndarray:
    """Per-stream capacity bits over each row of singular values:
    waterfilling over sigma^2."""
    gains = sigma**2
    return np.log2(1.0 + rho * waterfill(gains, rho) * gains)


# The one single-draw evaluator left: perfbench's tests delete this name
# from beamsim.experiments, which raises if it is missing.  It can go once
# the benchmark no longer looks it up.
def capacity_p2p(sigma: np.ndarray, rho: float) -> RateReport:
    """Point-to-point capacity over the channel's leading singular values
    ``sigma``, one stream each: waterfilling over sigma^2."""
    per = capacity_streams(sigma[None], rho)[0]
    return RateReport(float(per.sum()), per)


def _stream_gains(e: np.ndarray, gamma_t: np.ndarray, gamma_r: np.ndarray) -> np.ndarray:
    """|diag of the normalized effective channel|^2, from ``e = W^H H F``."""
    e = e / np.sqrt(gamma_t * gamma_r)[..., None, None]
    return np.abs(e.diagonal(axis1=-2, axis2=-1)) ** 2


def p2p_streams(chan: ChannelRealization, bf: "HybridBeamformer", rho: float):
    """Per-stream log-det bits of a stack of point-to-point designs over a
    stack ``chan`` of draws, for the draws it rates, and that mask.

    Evaluates log2 det(I + rho/(Gt Gr) Rn^-1 E P E^H) with E = W^H H F,
    Rn = W^H W / Gr, both normalization factors derived from the supplied
    matrices, and P waterfilled over the stream gains ``_stream_gains``.
    E comes from ``chan.project`` once, so a geometric draw is evaluated
    from its path factors without forming H.  A draw is refused when
    waterfilling cannot take its gains (none positive, or one not finite),
    then when Rn is ill-conditioned: Rn is Hermitian positive
    semidefinite, so its condition number is the ratio of its extreme
    eigenvalues, read with ``eigvalsh``, and a draw whose smallest is not
    positive is refused.  A noise covariance that Cholesky refuses raises
    numpy's LinAlgError for the whole stack, and a ``rho`` that is not
    positive raises ValueError.
    """
    f, w = bf.precoder(), bf.combiner()
    e = chan.project(w, f)
    gram = adjoint(w) @ w  # W^H W, whose trace / K is Gr
    gamma_t = _gamma(f)
    gamma_r = gram.trace(axis1=-2, axis2=-1).real / w.shape[-1]
    gains = _stream_gains(e, gamma_t, gamma_r)
    top = gains.max(axis=-1)  # NaN where any gain is NaN
    ok = (top > 0.0) & (top < math.inf)
    e, gram, gamma_t, gamma_r, gains = kept_rows(ok, e, gram, gamma_t, gamma_r, gains)
    rn = gram / gamma_r[..., None, None]
    lam_rn = np.linalg.eigvalsh(rn)
    conditioned = (lam_rn[..., 0] > 0.0) & (lam_rn[..., -1] <= COND_LIMIT * lam_rn[..., 0])
    e, rn, gamma_t, gamma_r, gains = kept_rows(conditioned, e, rn, gamma_t, gamma_r, gains)
    ok[ok] = conditioned
    power = waterfill(gains, rho)
    lchol = np.linalg.cholesky(rn)
    m_eff = e * np.sqrt(np.maximum(power, 0.0))[..., None, :]
    scale = np.sqrt(rho / (gamma_t * gamma_r))
    t = np.linalg.solve(lchol, m_eff) * scale[..., None, None]
    lam = np.linalg.eigvalsh(t @ adjoint(t))[..., ::-1]
    return np.log2(1.0 + np.maximum(lam, 0.0)), ok


def p2p_rates(chan: ChannelRealization, made, rho: float) -> np.ndarray:
    """The sum rate of each draw of the stack ``chan`` under a builder's
    ``(designs, mask)``: NaN where the builder or ``p2p_streams`` refused
    the draw."""
    bf, ok = made
    (kept,) = kept_rows(ok, chan)
    per, rated = p2p_streams(kept, bf, rho)
    out = np.full(ok.shape, math.nan)
    out[np.flatnonzero(ok)[rated]] = per.sum(axis=-1)
    return out


def mu_streams(chan: ChannelRealization, bf: "HybridBeamformer", rho: float) -> np.ndarray:
    """Per-user log2(1 + SINR) of a stack of multiuser designs over a stack
    ``chan`` of draws, with per-user decoding and interference as noise.

    The effective channel is E = H F / sqrt(Gt); user k sees
    SINR_k = (rho/K) |E_kk|^2 / (1 + (rho/K) sum_{j != k} |E_kj|^2).
    """
    f = bf.precoder()
    e2 = np.abs(chan.h @ f) ** 2 / _gamma(f)[..., None, None]
    sig = e2.diagonal(axis1=-2, axis2=-1)
    interf = e2.sum(axis=-1) - sig
    scale = rho / f.shape[-1]
    return np.log2(1.0 + scale * sig / (1.0 + scale * interf))

