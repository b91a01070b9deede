"""Channel generation: i.i.d. Rayleigh fading and sparse multipath with ULA steering.

Both models are normalized so E[||H||^2] = n_r * n_t.  A realization holds
one draw or a stack of draws (a leading axis over them).  Draws are made
as a stack (``draw_channels``), and a trial is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import (
    SeededRng,
    SvdResult,
    _complex_gaussian,
    _complex_gaussians,
    _restarted,
    adjoint,
    factored_svd,
    require_truncation,
    thin_svd,
)

RAYLEIGH = "rayleigh"
GEOMETRIC = "geometric"

# sigma_m at or below this fraction of sigma_1 counts as rank-deficient
RANK_TOL = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Declarative channel description.

    ``l_paths`` is required for (and restricted to) the geometric model;
    ``spacing_over_wavelength`` is the ULA element spacing d/lambda.
    """

    kind: str
    n_t: int
    n_r: int
    l_paths: int | None = None
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, GEOMETRIC):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.kind == GEOMETRIC:
            if self.l_paths is None or not 1 <= self.l_paths <= min(self.n_t, self.n_r):
                raise ValueError("geometric model needs 1 <= l_paths <= min(n_t, n_r)")
        elif self.l_paths is not None:
            raise ValueError("l_paths only applies to the geometric model")
        if not self.spacing_over_wavelength > 0.0:
            raise ValueError("spacing_over_wavelength must be positive")


@dataclass(frozen=True, init=False)
class ChannelRealization:
    """One channel draw, or a stack of draws of one model.

    ``factors`` (geometric only) holds the path structure the draw was
    built from, ``(a_r, g, a_t)`` with ``h = a_r diag(g) a_t^H``: the
    steering vectors as columns and ``g = sqrt(n_t n_r / L) beta``, with
    the unscaled gains ``beta`` beside them, sorted by descending |beta|
    (``draw_paths``).  A Rayleigh draw is given its
    dense ``h``; a geometric draw forms ``h`` from its factors only when
    something reads it, and otherwise works through ``project`` in
    O(n L) per column.

    A stack carries a leading axis over its draws on ``h``, on each factor
    and on ``beta``; ``project`` and ``h`` work over it, and ``chan[rows]``
    keeps some of its draws (so ``kept_rows`` drops draws of a stack, and
    ``chan[None]`` is the stack of one draw).
    """

    model: ChannelModel
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    beta: np.ndarray | None = None

    def __init__(self, model: ChannelModel, factors=None, h=None, beta=None):
        # frozen, so the fields go straight into the instance dict
        vars(self).update(model=model, factors=factors, beta=beta)
        if h is None:
            if factors is None or beta is None:
                raise ValueError("a channel realization needs h or its path factors")
            return
        if np.shape(h)[-2:] != self.shape:
            raise DimensionError(f"h has shape {np.shape(h)}, the model {self.shape}")
        vars(self)["h"] = h  # found there before the cached ``h`` forms one

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_r, n_t)``, the shape of ``h`` (of each draw of a stack)."""
        return (self.model.n_r, self.model.n_t)

    @cached_property
    def h(self) -> np.ndarray:
        """The dense channel matrix: as given, or formed from the path factors."""
        # the same operands and order as the eager dense sum of the paths,
        # so the bits match; (a_r * g) @ a_t^H would round differently
        a_r, _, a_t = self.factors
        scale = math.sqrt(self.model.n_t * self.model.n_r / self.model.l_paths)
        return scale * ((a_r * self.beta[..., None, :]) @ adjoint(a_t))

    def __getitem__(self, rows) -> ChannelRealization:
        """The draws ``rows`` (an index or mask over the first axis, or
        ``None`` for a stack of one) of a stack, with its ``h`` if formed."""
        def pick(a):
            return None if a is None else a[rows]

        factors = None if self.factors is None else tuple(map(pick, self.factors))
        h = pick(vars(self).get("h"))
        return ChannelRealization(self.model, factors=factors, h=h, beta=pick(self.beta))

    def project(self, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The effective channel ``W^H H F``, of each draw of a stack with
        ``w`` and ``f`` stacked alike.

        From the path factors as ``((W^H a_r) diag(g)) (a_t^H F)`` in
        O(n L k), without forming ``h``; a dense draw multiplies through
        ``h`` left to right.
        """
        if self.factors is None:
            return adjoint(w) @ self.h @ f
        a_r, g, a_t = self.factors
        return ((adjoint(w) @ a_r) * g[..., None, :]) @ (adjoint(a_t) @ f)


def steering_vector(phi: float, n: int, spacing_over_wavelength: float = 0.5) -> np.ndarray:
    """ULA array response toward angle ``phi`` in [0, pi], unit Euclidean norm.

    Entry i is exp(j 2 pi (d/lambda) i cos(phi)) / sqrt(n).
    """
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi={phi} outside [0, pi]")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return np.exp(2j * math.pi * spacing_over_wavelength * math.cos(phi) * idx) / math.sqrt(n)


def steering_block(phi: np.ndarray, n: int, spacing_over_wavelength: float = 0.5) -> np.ndarray:
    """The steering vectors toward the angles ``phi`` (..., L) as columns,
    (..., n, L): column j bitwise ``steering_vector(phi[..., j], n, ...)``.

    Each angle's phase step is formed as there, with ``math.cos``, and one
    broadcast ``np.exp`` makes every column.  Angles are not range-checked.
    """
    step = [2j * math.pi * spacing_over_wavelength * math.cos(p) for p in phi.ravel()]
    step = np.array(step).reshape(phi.shape)
    return np.exp(step[..., None, :] * np.arange(n)[:, None]) / math.sqrt(n)


def draw_paths(model: ChannelModel, rng: SeededRng) -> tuple[np.ndarray, ...]:
    """One geometric draw's path gains and angles ``(beta, phi_t, phi_r)``
    from the stream ``rng``, sorted by descending |beta|."""
    gen = _restarted(rng)
    l = model.l_paths
    beta = _complex_gaussian(gen, l)
    phi_t = gen.uniform(0.0, math.pi, l)
    phi_r = gen.uniform(0.0, math.pi, l)
    order = np.argsort(-np.abs(beta), kind="stable")
    return beta[order], phi_t[order], phi_r[order]


def _path_factors(model: ChannelModel, beta, phi_t, phi_r) -> tuple[np.ndarray, ...]:
    """``(a_r, g, a_t)`` of one draw's paths, or of a stack's along a leading axis."""
    spacing = model.spacing_over_wavelength
    g = math.sqrt(model.n_t * model.n_r / model.l_paths) * beta
    return steering_block(phi_r, model.n_r, spacing), g, steering_block(phi_t, model.n_t, spacing)


def draw_channels(model: ChannelModel, rngs) -> ChannelRealization:
    """The draws of ``model`` on the streams ``rngs``, as one stack.

    Rayleigh: every entry i.i.d. CN(0,1).  Geometric: l_paths outer
    products of receive/transmit steering vectors with CN(0,1) gains and
    departure/arrival angles uniform on [0, pi], scaled by
    sqrt(n_t n_r / l_paths), kept as path factors; the dense ``h`` is
    formed only when read.  Each draw is bitwise the same in any stack.
    """
    if model.kind == RAYLEIGH:
        return draw_rayleigh_stack(model, rngs)
    return draw_path_stack(model, rngs)


def draw_rayleigh_stack(model: ChannelModel, rngs) -> ChannelRealization:
    """The Rayleigh draws of the streams ``rngs`` as one stack, each
    draw's ``h`` bitwise the one its stream gives it alone."""
    h = _complex_gaussians(rngs, model.n_r * model.n_t)
    return ChannelRealization(model, h=h.reshape(len(rngs), model.n_r, model.n_t))


def draw_path_stack(model: ChannelModel, rngs) -> ChannelRealization:
    """The geometric draws of the streams ``rngs`` as one stack, each
    draw's factors bitwise those its stream gives it alone: every draw's
    gains and angles come from its own stream (``draw_paths``), and one
    ``steering_block`` call per side makes the whole stack's columns."""
    beta, phi_t, phi_r = (np.array(a) for a in zip(*(draw_paths(model, r) for r in rngs)))
    return ChannelRealization(model, factors=_path_factors(model, beta, phi_t, phi_r), beta=beta)


def channel_svds(chan: ChannelRealization, m: int) -> tuple[SvdResult, np.ndarray]:
    """The rank-``m`` thin SVD of a draw, or of each draw of a stack, and
    whether each draw has ``m`` significant singular values (sigma_m above
    ``RANK_TOL`` sigma_1): the one place a factorization is picked and
    rank is decided.  ``m`` outside ``1..min(n_r, n_t)`` raises
    DimensionError.

    A Rayleigh draw takes the dense ``thin_svd``.  A geometric draw is
    factored from its path factors in O(n L^2) (``factored_svd``); its
    rank is at most L, so for ``m > L`` it gets zero factors, which no
    draw passes, without an SVD or a formed ``h``.  A stack's factors are
    bitwise each draw's own, and a failed factorization raises
    ConvergenceError for all.

    The ``u``, ``sigma`` and ``v`` returned are read-only, so the callers
    that share them (a capacity and a design) cannot change what the
    other reads.
    """
    if chan.factors is None:
        svd = thin_svd(chan.h, m)
    else:
        require_truncation(m, chan.shape)
        g = chan.factors[1]
        if m <= g.shape[-1]:
            svd = factored_svd(*chan.factors, m)
        else:  # rank at most L < m: zero factors, which no draw passes
            lead, (n_r, n_t) = g.shape[:-1], chan.shape
            svd = SvdResult(*(np.zeros(lead + s) for s in ((n_r, m), (m,), (n_t, m))))
    for a in (svd.u, svd.sigma, svd.v):
        a.flags.writeable = False
    return svd, svd.sigma[..., m - 1] > RANK_TOL * svd.sigma[..., 0]
