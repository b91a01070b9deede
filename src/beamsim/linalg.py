"""Complex linear algebra, special functions and reproducible sampling.

Everything downstream (channel draws, beamformer construction, rate
evaluation) is built on the primitives here: a gauge-fixed thin SVD,
counter-based random streams, a handle on numpy's OpenBLAS (its thread
count and its rank-k SVD driver), and the CDFs and KS distance that
sampled laws are checked with.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_MASK64 = (1 << 64) - 1

# (set, get) thread-count entry points: the scipy-openblas library numpy's
# wheels bundle, then a plain OpenBLAS build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# numpy's bundled OpenBLAS exports LAPACKE with 64-bit integers; this driver
# computes a subset of the singular triplets
_GESVDX_SYMBOL = "scipy_LAPACKE_zgesvdx64_"
_LAPACK_COL_MAJOR = 102

# thin_svd computes only the leading m triplets (zgesvdx) of a matrix whose
# smaller side n is at least RANK_K_MIN and RANK_K_RATIO m, and runs a full
# zgesdd otherwise.  Measured per matrix (2 vCPUs, OpenBLAS 0.3.31): at
# m = 4 zgesvdx ties at n = 32, wins from n = 48-64 (2.1x at n = 512) and
# loses on thin shapes (a 4 x 64 matrix: 0.4x); at n = 128 it wins up to
# m = 16 and loses from m = 32, at n = 256 it breaks even at m = 64.  Every
# record golden stops at n = 64, so the route starts at n = 128
RANK_K_MIN = 128
RANK_K_RATIO = 8

# the Rayleigh scale of |z| and the standard deviation of Re z, z ~ CN(0, 1)
_CN_SCALE = 1.0 / math.sqrt(2.0)

# entries within this relative distance of a column's largest magnitude tie
# for the gauge anchor, so equal-magnitude columns anchor on their first entry
GAUGE_TIE = 1e-9


@dataclass(frozen=True)
class SeededRng:
    """Value-type handle on a counter-based random stream.

    Identical (master_seed, stream_id) pairs reproduce identical sample
    sequences on any platform, and distinct stream_ids give statistically
    independent streams.  Each ``generator()`` call restarts the stream
    from its origin, so a SeededRng can be shared freely between workers;
    give each task its own ``stream_id`` instead of sharing generator state.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD factors with singular values in descending order.

    ``u`` (rows x m) and ``v`` (cols x m) have orthonormal columns.  The
    per-column phase gauge is fixed so one anchor entry of each column of
    ``v`` is real and nonnegative, with ``u`` rotated to match; this keeps
    the factorization exact while making repeated runs byte-for-byte
    reproducible.  The anchor is the first entry whose magnitude lies
    within a relative ``GAUGE_TIE`` of the column's largest, so a column
    of equal magnitudes (a steering vector) anchors on entry 0 whatever
    rounding the factorization left behind.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __getitem__(self, rows) -> SvdResult:
        """The factors ``rows`` of a stack (``None``: a stack of one)."""
        return SvdResult(self.u[rows], self.sigma[rows], self.v[rows])


def require_truncation(m: int, shape: tuple[int, int]) -> None:
    """Raise DimensionError unless ``1 <= m <= min(shape)``."""
    if not 1 <= m <= min(shape):
        raise DimensionError(f"m={m} outside 1..min{shape} for a {shape[0]}x{shape[1]} matrix")


def thin_svd(a, m: int) -> SvdResult:
    """Rank-``m`` thin SVD of a complex matrix, or of each matrix of a stack.

    A matrix whose smaller side n is at least ``RANK_K_MIN`` and
    ``RANK_K_RATIO * m`` gets only its leading ``m`` triplets, from LAPACK
    ``zgesvdx`` in the OpenBLAS numpy has loaded, one call per matrix.
    It still reduces the matrix to bidiagonal form, but it forms ``m``
    singular vectors a side instead of n (2.1x faster at n = 512, m = 4;
    see ``RANK_K_MIN``).  Any other matrix, and every matrix where that
    library or symbol is missing, runs ``np.linalg.svd`` (``zgesdd``) and
    keeps the leading ``m``.  The two drivers agree to rounding, not
    bitwise.  An SVD that does not converge raises numpy's ``LinAlgError``.

    Parameters
    ----------
    a : array_like
        Matrix to factor, any complex or real 2-D array, or a stack of
        them with leading batch axes; the factors then carry the same
        leading axes, and each matrix's factors are bitwise those of its
        own call.
    m : int
        Number of leading singular triplets to keep,
        ``1 <= m <= min(rows, cols)``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2:
        raise DimensionError(f"a must be 2-D or a stack of 2-D matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("a contains non-finite entries")
    require_truncation(m, a.shape[-2:])
    n = min(a.shape[-2:])
    gesvdx = _gesvdx() if n >= max(RANK_K_MIN, RANK_K_RATIO * m) else None
    if gesvdx is None:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        u = u[..., :m].copy()
        s = s[..., :m].copy()
        v = adjoint(vh[..., :m, :]).copy()
    else:
        u, s, v = _leading_triplets(gesvdx, a, m)
    _fix_gauge(u, v)
    return SvdResult(u=u, sigma=s, v=v)


def _leading_triplets(gesvdx, a: np.ndarray, m: int):
    """``(u, sigma, v)`` of the leading ``m`` singular triplets of each
    matrix of ``a``, one ``zgesvdx`` call per matrix, so a stack's factors
    are bitwise each matrix's own.  A call that reports failure raises
    numpy's ``LinAlgError``."""
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    u = np.empty(lead + (rows, m), dtype=complex)
    s = np.empty(lead + (m,))
    v = np.empty(lead + (cols, m), dtype=complex)
    found, sigma = np.zeros(1, dtype=np.int64), np.empty(min(rows, cols))
    superb = np.empty(12 * min(rows, cols), dtype=np.int64)
    u_one = np.empty((rows, m), dtype=complex, order="F")
    for i in np.ndindex(lead):
        # LAPACK reads column-major storage and overwrites its input, so it
        # gets a column-major copy; V^H (m x cols) is written column-major
        # into v's rows, which are then conjugated in place
        info = gesvdx(
            _LAPACK_COL_MAJOR, b"V", b"V", b"I", rows, cols, np.array(a[i], order="F"), rows,
            0.0, 0.0, 1, m, found, sigma, u_one, rows, v[i].T, m, superb,
        )
        if info != 0 or found[0] != m:
            raise np.linalg.LinAlgError(f"zgesvdx failed (info={info})")
        u[i], s[i] = u_one, sigma[:m]
    np.conjugate(v, out=v)
    return u, s, v


def factored_svd(a_r, g, a_t, m: int) -> SvdResult:
    """Rank-``m`` thin SVD of ``a_r diag(g) a_t^H`` from its factors.

    The QR factors ``(Q, R)`` of the steering blocks ``a_r`` (rows x L)
    and ``a_t`` (cols x L) reduce the problem to the thin SVD of the
    L x L core ``R_r diag(g) R_t^H``, whose factors ``Q_r``/``Q_t`` rotate
    back to full size: O((rows + cols) L^2) work instead of a dense SVD.
    The result is exact (not an approximation) for any ``1 <= m <= L``.
    Stacked factors (a leading axis on each) give stacked results, each
    bitwise that of its own call.
    """
    q_r, r_r = np.linalg.qr(a_r)
    q_t, r_t = np.linalg.qr(a_t)
    core = thin_svd((r_r * g[..., None, :]) @ adjoint(r_t), m)
    u = q_r @ core.u
    v = q_t @ core.v
    _fix_gauge(u, v)
    return SvdResult(u=u, sigma=core.sigma, v=v)


def _fix_gauge(u: np.ndarray, v: np.ndarray) -> None:
    """Rotate matching columns of ``u`` and ``v`` in place so each column's
    anchor entry of ``v`` is real and nonnegative (see ``SvdResult``); over
    the last two axes, so a stack is fixed matrix by matrix."""
    # columns as rows: the reductions then run over contiguous memory
    mags = np.abs(v).swapaxes(-1, -2).copy()
    anchors = np.argmax(mags >= (1.0 - GAUGE_TIE) * mags.max(axis=-1, keepdims=True), axis=-1)
    # one gather of every anchor by flat index, for a matrix or a stack
    n, m = v.shape[-2:]
    first = np.arange(0, v.size, n * m).reshape(anchors.shape[:-1] + (1,))
    p = v.ravel()[first + anchors * m + np.arange(m)]
    # hypot, not np.abs: it rounds each magnitude exactly as scalar abs() does
    mag = np.hypot(p.real, p.imag)
    rot = np.divide(p, mag, out=np.ones_like(p), where=mag > 0.0).conjugate()
    v *= rot[..., None, :]
    u *= rot[..., None, :]


def kept_rows(ok: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows (first-axis entries) of each array where the mask ``ok`` is
    true: copies, or the arrays themselves when it keeps every row."""
    if np.count_nonzero(ok) == ok.size:  # quicker than ok.all() on a short mask
        return arrays
    return tuple(a[ok] for a in arrays)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes (``a.conj().T`` of a matrix)."""
    return a.conj().swapaxes(-1, -2)


@functools.cache
def _openblas():
    """The OpenBLAS numpy has loaded, as a ctypes handle, or None.

    The library is found among the shared objects mapped into this process
    (``/proc/self/maps``): the first that exports a known thread-count
    pair.  It is opened with ``RTLD_NOLOAD``, so the handle is the copy
    numpy calls and nothing new is loaded.  None when there is no ``/proc``
    or no such library (MKL, Accelerate, another layout).  Resolved on the
    first call and cached, so processes forked afterwards inherit it.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(maxsplit=5) for line in maps if "blas" in line)
            paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        if _thread_symbols(lib) is not None:
            return lib
    return None


def _thread_symbols(lib):
    """The first ``(set, get)`` name pair of ``_BLAS_THREAD_SYMBOLS`` that
    ``lib`` exports, or None."""
    return next((pair for pair in _BLAS_THREAD_SYMBOLS if all(hasattr(lib, n) for n in pair)), None)


@functools.cache
def blas_thread_control():
    """``(set_threads, get_threads)`` of the OpenBLAS numpy has loaded
    (``_openblas``), or None where it is not found."""
    lib = _openblas()
    if lib is None:
        return None
    set_threads, get_threads = (getattr(lib, name) for name in _thread_symbols(lib))
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@functools.cache
def _gesvdx():
    """LAPACKE ``zgesvdx`` of the OpenBLAS numpy has loaded (``_openblas``),
    or None where the library or the symbol is missing.  It runs in that
    library's thread pool, the one ``blas_thread_control`` sets."""
    lib = _openblas()
    gesvdx = getattr(lib, _GESVDX_SYMBOL, None) if lib is not None else None
    if gesvdx is None:
        return None
    i64, char = ctypes.c_int64, ctypes.c_char
    matrix = np.ctypeslib.ndpointer(np.complex128, ndim=2, flags="F_CONTIGUOUS")
    gesvdx.argtypes = [
        ctypes.c_int, char, char, char, i64, i64, matrix, i64,  # layout, jobs, range, a
        ctypes.c_double, ctypes.c_double, i64, i64,  # vl, vu, il, iu
        np.ctypeslib.ndpointer(np.int64, ndim=1),  # ns
        np.ctypeslib.ndpointer(np.float64, ndim=1),  # s
        matrix, i64, matrix, i64,  # u, ldu, vt, ldvt
        np.ctypeslib.ndpointer(np.int64, ndim=1),  # superb
    ]
    gesvdx.restype = i64
    return gesvdx


# one Philox per thread, restarted for each stream a draw reads
_streams = threading.local()


def _restarted(rng: SeededRng) -> np.random.Generator:
    """This thread's generator, restarted at the origin of ``rng``'s stream.

    Bitwise the stream ``rng.generator()`` gives, without building a
    Philox (and the SeedSequence its constructor gathers): the state is set
    to counter 0, the stream's key and an empty buffer.  The generator is
    shared, so read it to the end of one draw before the next restart.
    """
    if not hasattr(_streams, "gen"):
        _streams.gen = np.random.Generator(np.random.Philox(key=0))
        _streams.state = _streams.gen.bit_generator.state
    key = _streams.state["state"]["key"]
    key[0], key[1] = rng.master_seed & _MASK64, rng.stream_id & _MASK64
    _streams.gen.bit_generator.state = _streams.state
    return _streams.gen


def _complex_gaussian(gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` i.i.d. CN(0,1) samples from ``gen``: its next ``2 n`` standard
    normals as (real, imag) pairs, scaled by 1/sqrt(2).

    The scale multiplies by the reciprocal, as numpy's complex-by-real
    division does; dividing by sqrt(2) would round some samples differently
    and move the bits the record goldens pin.
    """
    z = gen.standard_normal(2 * n)
    z *= _CN_SCALE
    return z.view(complex)


def _complex_gaussians(rngs, n: int) -> np.ndarray:
    """``_complex_gaussian`` of ``n`` samples from the start of each stream
    of ``rngs``, stacked as (len(rngs), n): each row bitwise its stream's."""
    z = np.empty((len(rngs), 2 * n))
    for rng, row in zip(rngs, z):
        _restarted(rng).standard_normal(out=row)
    z *= _CN_SCALE
    return z.view(complex)


def sample_complex_gaussian(rng: SeededRng, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. CN(0,1) samples (real/imag parts N(0, 1/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _complex_gaussians([rng], n)[0]


def ks_statistic(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of ``samples`` and ``cdf``,
    which is called once on the sorted samples as an ndarray."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(n + 1) / n
    d_hi = float(np.max(steps[1:] - f))
    d_lo = float(np.max(f - steps[:-1]))
    return max(d_hi, d_lo, 0.0)


def rayleigh_cdf(x):
    """CDF of |z| for z ~ CN(0, 1): a Rayleigh variable with scale 1/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, 1.0 - np.exp(-x * x / (2.0 * _CN_SCALE * _CN_SCALE)))


def normal_cdf(x):
    """CDF of Re z for z ~ CN(0, 1): a zero-mean normal with standard
    deviation 1/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / (_CN_SCALE * math.sqrt(2.0))))
