"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths it is used to check:
the error function comes from its Maclaurin series in 50-digit arithmetic,
the thresholded-Rayleigh mean from adaptive quadrature, multiuser SINRs
from a scalar-by-scalar loop, waterfilling from a descending search over
one gain vector, and singular values from cyclic Jacobi
eigenvalues of the Gram matrix (that solver never calls LAPACK, and
test_validation pins it against numpy.linalg.eigvalsh).
"""

import math

import mpmath
import numpy as np

from beamsim.validation import cyclic_jacobi_eigvalsh


def erf_series(x: float) -> float:
    """erf via 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)), 50-digit arithmetic."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        coeff = xm  # (-1)^n x^(2n+1) / n!
        n = 0
        while True:
            term = coeff / (2 * n + 1)
            total += term
            if abs(term) < mpmath.mpf(10) ** -40 * (1 + abs(total)):
                break
            n += 1
            coeff *= -xm * xm / n
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


def thresholded_rayleigh_mean_quad(alpha: float) -> float:
    """E of a Rayleigh(1/sqrt(2)) variable zeroed below alpha: integral of 2 v^2 e^(-v^2) over [alpha, inf)."""
    with mpmath.workdps(40):
        val = mpmath.quad(lambda v: 2 * v * v * mpmath.e ** (-v * v), [mpmath.mpf(alpha), mpmath.inf])
        return float(val)


def sum_rate_scalar_loop(h: np.ndarray, f: np.ndarray, rho: float) -> float:
    """Per-user SINR sum rate computed entry by entry (no matrix shortcuts)."""
    k = f.shape[1]
    gamma_t = 0.0
    for i in range(f.shape[0]):
        for j in range(k):
            gamma_t += abs(f[i, j]) ** 2
    gamma_t /= k
    total = 0.0
    for user in range(k):
        powers = []
        for j in range(k):
            e = 0.0 + 0.0j
            for i in range(f.shape[0]):
                e += h[user, i] * f[i, j]
            powers.append(abs(e) ** 2 / gamma_t)
        signal = (rho / k) * powers[user]
        interference = (rho / k) * (sum(powers) - powers[user])
        total += math.log2(1.0 + signal / (1.0 + interference))
    return total


def waterfill_loop(gains: np.ndarray, rho: float) -> np.ndarray:
    """Waterfilling of one gain vector by the sorted water level, searching
    the active count down from the number of positive gains: the same
    operands and rounding as ``rates.waterfill``, so its bits must match."""
    g = np.asarray(gains, dtype=float)
    p = np.zeros_like(g)
    idx = np.flatnonzero(g > 0.0)
    inv = 1.0 / (rho * g[idx])
    order = np.argsort(inv, kind="stable")
    shifted = inv[order] - inv[order][0]
    csum = np.cumsum(shifted)
    active = shifted.size
    while active > 1 and not (1.0 + csum[active - 1]) / active > shifted[active - 1]:
        active -= 1
    level = (1.0 + csum[active - 1]) / active
    p[idx[order[:active]]] = level - shifted[:active]
    return p


def singular_values_via_gram(a: np.ndarray) -> np.ndarray:
    """Singular values of a as square roots of Jacobi eigenvalues of a^H a."""
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    lam = cyclic_jacobi_eigvalsh(gram)
    return np.sqrt(np.maximum(lam, 0.0))
