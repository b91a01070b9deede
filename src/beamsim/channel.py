"""Channel generation: i.i.d. Rayleigh fading and sparse multipath with ULA steering.

Both models are normalized so E[||H||^2] = n_r * n_t.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, RankError
from .linalg import (
    SeededRng,
    SvdResult,
    _complex_gaussian,
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


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw; ``paths`` (geometric only) sorted by descending |beta|.

    ``factors`` (geometric only) holds the path structure the draw was
    built from, ``(a_r, g, a_t)`` with ``h = a_r diag(g) a_t^H``: the
    steering vectors as columns and ``g = sqrt(n_t n_r / L) beta``.  A
    Rayleigh draw is given its dense ``h``; a geometric draw forms ``h``
    from its paths only when something reads it, and otherwise works
    through ``project`` and ``path_qr`` in O(n L) per column.
    """

    model: ChannelModel
    paths: tuple[PathComponent, ...] | None = None
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    h: InitVar[np.ndarray | None] = None

    def __post_init__(self, h):
        if h is None:
            if self.paths is None or self.factors is None:
                raise ValueError("a channel realization needs h or its paths and factors")
            return
        if np.shape(h) != self.shape:
            raise DimensionError(f"h has shape {np.shape(h)}, the model {self.shape}")
        self.__dict__["h"] = h  # found there before the cached ``h`` forms one

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_r, n_t)``, the shape of ``h``."""
        return (self.model.n_r, self.model.n_t)

    def _formed_h(self) -> np.ndarray:
        # the same operands and order draw_channel used before h was lazy,
        # so the bits match; (a_r * g) @ a_t^H would round differently
        a_r, _, a_t = self.factors
        beta = np.array([p.beta for p in self.paths])
        scale = math.sqrt(self.model.n_t * self.model.n_r / len(self.paths))
        return scale * ((a_r * beta) @ a_t.conj().T)

    @cached_property
    def path_qr(self):
        """QR factors of the receive and transmit steering blocks, computed
        once per draw for every ``channel_svd`` call."""
        a_r, _, a_t = self.factors
        return np.linalg.qr(a_r), np.linalg.qr(a_t)

    def project(self, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The effective channel ``W^H H F``.

        From the path factors as ``((W^H a_r) diag(g)) (a_t^H F)`` in
        O(n L k), without forming ``h``; a dense draw multiplies through
        ``h`` left to right.
        """
        if self.factors is None:
            return w.conj().T @ self.h @ f
        a_r, g, a_t = self.factors
        return ((w.conj().T @ a_r) * g) @ (a_t.conj().T @ f)


# Attached after the dataclass is built, so that ``h`` stays an optional
# init argument (an InitVar) and a given matrix is the cached value.
ChannelRealization.h = cached_property(ChannelRealization._formed_h)
ChannelRealization.h.__set_name__(ChannelRealization, "h")


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
    factored from its paths in O(n L^2) (``factored_svd`` on its cached
    ``path_qr``); its rank is at most L, so ``m > L`` raises before any
    SVD, without forming ``h``.
    """
    svd = None
    if chan.factors is None:
        svd = thin_svd(chan.h, m)
    else:
        require_truncation(m, chan.shape)
        if m <= chan.factors[1].size:
            qr_r, qr_t = chan.path_qr
            svd = factored_svd(qr_r, chan.factors[1], qr_t, m)
    if svd is None or svd.sigma[m - 1] <= RANK_TOL * svd.sigma[0]:
        raise RankError(f"requested {m} streams but effective rank is smaller")
    return svd
