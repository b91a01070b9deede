"""Channel generation: i.i.d. Rayleigh fading and sparse multipath with ULA steering.

Both models are normalized so E[||H||^2] = n_r * n_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, RankError
from .linalg import (
    SeededRng,
    SvdResult,
    _complex_gaussian,
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


@dataclass(frozen=True)
class PathComponent:
    beta: complex
    phi_t: float
    phi_r: float


@dataclass(frozen=True, init=False)
class ChannelRealization:
    """One channel draw; ``paths`` (geometric only) sorted by descending |beta|.

    ``factors`` (geometric only) holds the path structure the draw was
    built from, ``(a_r, g, a_t)`` with ``h = a_r diag(g) a_t^H``: the
    steering vectors as columns and ``g = sqrt(n_t n_r / L) beta``.  A
    Rayleigh draw is given its dense ``h``; a geometric draw forms ``h``
    from its paths only when something reads it, and otherwise works
    through ``project`` in O(n L) per column.
    """

    model: ChannelModel
    paths: tuple[PathComponent, ...] | None = None
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __init__(self, model: ChannelModel, paths=None, factors=None, h=None):
        # frozen, so the fields go straight into the instance dict
        vars(self).update(model=model, paths=paths, factors=factors)
        if h is None:
            if paths is None or factors is None:
                raise ValueError("a channel realization needs h or its paths and factors")
            return
        if np.shape(h) != self.shape:
            raise DimensionError(f"h has shape {np.shape(h)}, the model {self.shape}")
        vars(self)["h"] = h  # found there before the cached ``h`` forms one

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_r, n_t)``, the shape of ``h``."""
        return (self.model.n_r, self.model.n_t)

    @cached_property
    def h(self) -> np.ndarray:
        """The dense channel matrix: as given, or formed from the paths."""
        # the same operands and order draw_channel used before h was lazy,
        # so the bits match; (a_r * g) @ a_t^H would round differently
        a_r, _, a_t = self.factors
        beta = np.array([p.beta for p in self.paths])
        scale = math.sqrt(self.model.n_t * self.model.n_r / len(self.paths))
        return scale * ((a_r * beta) @ a_t.conj().T)

    def project(self, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The effective channel ``W^H H F``.

        From the path factors as ``((W^H a_r) diag(g)) (a_t^H F)`` in
        O(n L k), without forming ``h``; a dense draw multiplies through
        ``h`` left to right.
        """
        if self.factors is None:
            return dense_project(self.h, w, f)
        a_r, g, a_t = self.factors
        return ((w.conj().T @ a_r) * g) @ (a_t.conj().T @ f)


def dense_project(h: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``W^H H F`` through a dense ``h``, left to right; over the last two
    axes, so a stack of draws projects matrix by matrix."""
    return adjoint(w) @ h @ f


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


def draw_channel(model: ChannelModel, rng: SeededRng) -> ChannelRealization:
    """Draw one channel realization from ``model`` using the given stream.

    Rayleigh: every entry i.i.d. CN(0,1).  Geometric: l_paths outer
    products of receive/transmit steering vectors with CN(0,1) gains and
    departure/arrival angles uniform on [0, pi], scaled by
    sqrt(n_t n_r / l_paths), kept as path factors; the dense ``h`` is
    formed only when read.
    """
    gen = rng.generator()
    if model.kind == RAYLEIGH:
        h = _complex_gaussian(gen, model.n_r * model.n_t).reshape(model.n_r, model.n_t)
        return ChannelRealization(h=h, model=model)

    l = model.l_paths
    beta = _complex_gaussian(gen, l)
    phi_t = gen.uniform(0.0, math.pi, l)
    phi_r = gen.uniform(0.0, math.pi, l)
    order = np.argsort(-np.abs(beta), kind="stable")
    beta, phi_t, phi_r = beta[order], phi_t[order], phi_r[order]
    a_t = np.column_stack(
        [steering_vector(p, model.n_t, model.spacing_over_wavelength) for p in phi_t]
    )
    a_r = np.column_stack(
        [steering_vector(p, model.n_r, model.spacing_over_wavelength) for p in phi_r]
    )
    scale = math.sqrt(model.n_t * model.n_r / l)
    paths = tuple(
        PathComponent(complex(b), float(pt), float(pr))
        for b, pt, pr in zip(beta, phi_t, phi_r)
    )
    return ChannelRealization(model=model, paths=paths, factors=(a_r, scale * beta, a_t))


def channel_svd(chan: ChannelRealization, m: int) -> SvdResult:
    """Rank-``m`` thin SVD of ``chan.h``: the one place a factorization is
    picked and the one place rank is decided.

    Returns factors with ``m`` significant singular values or raises
    RankError; ``m`` outside ``1..min(n_r, n_t)`` raises DimensionError.
    A Rayleigh draw takes the dense ``thin_svd``.  A geometric draw is
    factored from its path factors in O(n L^2) (``factored_svd``); its
    rank is at most L, so ``m > L`` raises before any SVD, without
    forming ``h``.

    A trial calls this once and hands the one result to both the
    capacity reference and the design, so its ``u``, ``sigma`` and ``v``
    are read-only: no consumer can change what the other reads.
    """
    if chan.factors is None:
        svd = thin_svd(chan.h, m)
    else:
        require_truncation(m, chan.shape)
        svd = factored_svd(*chan.factors, m) if m <= chan.factors[1].size else None
    if svd is None or not _full_rank(svd.sigma, m):
        raise RankError(f"requested {m} streams but effective rank is smaller")
    for a in (svd.u, svd.sigma, svd.v):
        a.flags.writeable = False
    return svd


def _full_rank(sigma: np.ndarray, m: int):
    """Whether sigma_m clears ``RANK_TOL`` sigma_1, for each row of ``sigma``."""
    return sigma[..., m - 1] > RANK_TOL * sigma[..., 0]


def dense_svds(h: np.ndarray, m: int) -> tuple[SvdResult, np.ndarray]:
    """``channel_svd`` of each dense draw of a stack ``h`` (draws x n_r x n_t).

    Returns the stacked factors, each draw's bitwise those of its own
    ``channel_svd``, and a mask of the draws with ``m`` significant singular
    values: the rank rule of ``channel_svd``, whose RankError the others
    would raise.  A failed factorization raises ConvergenceError for the
    whole stack.
    """
    svd = thin_svd(h, m)
    return svd, _full_rank(svd.sigma, m)
