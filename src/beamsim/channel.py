"""Channel generation: i.i.d. Rayleigh fading and sparse multipath with ULA steering.

Both models are normalized so E[||H||^2] = n_r * n_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, SvdResult, _complex_gaussian, factored_svd, thin_svd

RAYLEIGH = "rayleigh"
GEOMETRIC = "geometric"


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
    steering vectors as columns and ``g = sqrt(n_t n_r / L) beta``.
    """

    h: np.ndarray
    model: ChannelModel
    paths: tuple[PathComponent, ...] | None = None
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


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
    sqrt(n_t n_r / l_paths).
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
    h = scale * ((a_r * beta) @ a_t.conj().T)
    paths = tuple(
        PathComponent(complex(b), float(pt), float(pr))
        for b, pt, pr in zip(beta, phi_t, phi_r)
    )
    return ChannelRealization(h=h, model=model, paths=paths, factors=(a_r, scale * beta, a_t))


def channel_svd(chan: ChannelRealization, m: int) -> SvdResult:
    """Rank-``m`` thin SVD of ``chan.h``, the one place a factorization is picked.

    A geometric draw with ``m`` at most its path count is factored from its
    paths in O(n L^2) (``factored_svd``); anything else, including a
    rank-starved ``m > L`` that must fail the same way, takes the dense
    ``thin_svd(chan.h, m)``.
    """
    if chan.factors is not None and 1 <= m <= chan.factors[1].size:
        return factored_svd(*chan.factors, m)
    return thin_svd(chan.h, m)
