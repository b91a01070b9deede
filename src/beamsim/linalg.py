"""Complex linear algebra, special functions and reproducible sampling.

Everything downstream (channel draws, beamformer construction, rate
evaluation) is built on the primitives here: a gauge-fixed thin SVD,
counter-based random streams, a handle on numpy's OpenBLAS (its thread
count, and the Gram-matrix product and eigensolver of the rank-k SVD
route), and the CDFs and KS distance that sampled laws are checked with.
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

# numpy's bundled OpenBLAS exports CBLAS and LAPACKE with 64-bit integers:
# a Hermitian rank-k update (the Gram matrix) and a subset eigensolver
_HERK_SYMBOL = "scipy_cblas_zherk64_"
_HEEVR_SYMBOL = "scipy_LAPACKE_zheevr64_"
_COL_MAJOR, _UPPER, _NO_TRANS, _CONJ_TRANS = 102, 121, 111, 113

# thin_svd computes only the leading m triplets (Gram + zheevr) of a matrix
# whose smaller side n is at least RANK_K_MIN and RANK_K_RATIO m, and runs a
# full zgesdd otherwise.  Measured per matrix (2 vCPUs, OpenBLAS 0.3.31, one
# BLAS thread; README "Library layout"): at m = 4 the Gram route takes 0.17,
# 0.30 and 0.81 ms at n = 32, 48 and 64 against zgesdd's 0.22, 0.62 and 1.7
# ms, and 3.0, 16 and 75 ms at n = 128, 256 and 512 against 10, 42 and 209
# ms (default threads); it still wins at m = n / 8 (and at m = n / 4).  At
# n = 16 it loses (0.094 against 0.062 ms), so the route starts at n = 32
RANK_K_MIN = 32
RANK_K_RATIO = 8

# the Gram matrix squares the condition number: a matrix whose m-th
# eigenvalue of it is at most GRAM_FLOOR times the largest (sigma_m /
# sigma_1 <= 1e-4) is factored by the full SVD, which resolves sigma down
# to channel.RANK_TOL.  On a 128 x 128 draw with sigma_4 / sigma_1 = 1.01e-6
# the Gram route's sigma_4 was off by 1.1e-5 relative and its u orthonormal
# only to 2.2e-5; at a ratio of 1e-4, to 2e-9 and 4e-9
GRAM_FLOOR = 1e-8

# the Rayleigh scale of |z| and the standard deviation of Re z, z ~ CN(0, 1)
_CN_SCALE = 1.0 / math.sqrt(2.0)

# entries within this relative distance of a column's largest magnitude tie
# for the gauge anchor, so equal-magnitude columns anchor on their first entry
GAUGE_TIE = 1e-9


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
    rounding the factorization left behind.  A matrix factored by the
    Gram route of ``thin_svd`` has each anchor exactly real; elsewhere
    the anchor keeps an imaginary rounding residue of about 1e-17.
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
    ``RANK_K_RATIO * m`` gets only its leading ``m`` triplets, from its
    n x n Gram matrix (H^H H, or H H^H for a wide H): one ``zherk`` forms
    it and ``zheevr`` computes its top ``m`` eigenpairs, in the OpenBLAS
    numpy has loaded, one call each per matrix.  sigma is the square root
    of an eigenvalue, and the other side's vectors are H v / sigma (or
    H^H u / sigma).  That is 2.8x faster than ``zgesdd`` at n = 512, m = 4
    (see ``RANK_K_MIN``).  The Gram matrix squares the condition number,
    so a matrix with sigma_m / sigma_1 at or below 1e-4
    (``GRAM_FLOOR`` on the eigenvalues) is factored by ``np.linalg.svd``
    instead.  Any other matrix, and every matrix where that library or a
    symbol is missing, runs ``np.linalg.svd`` (``zgesdd``) and keeps the
    leading ``m``.  The two routes agree to rounding, not bitwise, and
    only the Gram route writes each gauge anchor of ``v`` as an exact
    real number (see ``_fix_gauge``).  An SVD or eigensolver that does
    not converge raises numpy's ``LinAlgError``.

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
    drivers = _gram_drivers() if n >= max(RANK_K_MIN, RANK_K_RATIO * m) else None
    if drivers is None:
        (u, s, v), exact = _full_triplets(a, m), False
    else:
        u, s, v, exact = _gram_triplets(drivers, a, m)
    _fix_gauge(u, v, exact)
    return SvdResult(u=u, sigma=s, v=v)


def _full_triplets(a: np.ndarray, m: int):
    """``(u, sigma, v)`` of the leading ``m`` triplets of each matrix of
    ``a`` from ``np.linalg.svd`` (``zgesdd``), as fresh C-ordered arrays."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u[..., :m].copy(), s[..., :m].copy(), adjoint(vh[..., :m, :]).copy()


def _gram_triplets(drivers, a: np.ndarray, m: int):
    """``(u, sigma, v, gram_route)`` with the leading ``m`` singular triplets of
    each matrix of ``a`` from its Gram matrix, one ``zherk`` and one
    ``zheevr`` call per matrix, so a stack's factors are bitwise each
    matrix's own.  A matrix past ``GRAM_FLOOR`` gets ``_full_triplets`` of
    its own, and ``gram_route`` (a bool per matrix) is false for it alone.  An
    eigensolver call that reports failure raises numpy's ``LinAlgError``."""
    herk, heevr = drivers
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    n, wide = min(rows, cols), rows < cols
    u = np.empty(lead + (rows, m), dtype=complex)
    s = np.empty(lead + (m,))
    v = np.empty(lead + (cols, m), dtype=complex)
    gram_route = np.ones(lead, dtype=bool)
    # the one n x n buffer: zherk writes its upper triangle, zheevr reads
    # that and overwrites it
    gram = np.empty((n, n), dtype=complex, order="F")
    found, lam = np.zeros(1, dtype=np.int64), np.empty(n)
    z = np.empty((n, m), dtype=complex, order="F")
    isuppz = np.empty(2 * m, dtype=np.int64)
    for i in np.ndindex(lead):
        h = np.ascontiguousarray(a[i])
        # h read column-major is h^T, so NoTrans (tall) gives h^T conj(h)
        # and ConjTrans (wide) conj(h) h^T: conj(G) either way, with no
        # conjugated copy of h; its eigenvectors are conj of G's
        trans = _CONJ_TRANS if wide else _NO_TRANS
        herk(_COL_MAJOR, _UPPER, trans, n, max(rows, cols), 1.0, h, cols, 0.0, gram, n)
        info = heevr(
            _COL_MAJOR, b"V", b"I", b"U", n, gram, n, 0.0, 0.0, n - m + 1, n, 0.0,
            found, lam, z, n, isuppz,
        )
        if info != 0 or found[0] != m:
            raise np.linalg.LinAlgError(f"zheevr failed (info={info})")
        # eigenvalues ascend: the leading triplets are the last m, reversed
        top = lam[m - 1::-1]
        if not top[-1] > GRAM_FLOOR * top[0]:
            u[i], s[i], v[i] = _full_triplets(a[i], m)
            gram_route[i] = False
            continue
        sigma = np.sqrt(top)
        z_top = z[:, ::-1]
        if wide:
            u[i] = z_top.conj()
            v[i] = (h.T @ z_top).conj() / sigma  # h^H u / sigma
        else:
            v[i] = z_top.conj()
            u[i] = h @ v[i] / sigma
        s[i] = sigma
    return u, s, v, gram_route


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


def _fix_gauge(u: np.ndarray, v: np.ndarray, exact=False) -> None:
    """Rotate matching columns of ``u`` and ``v`` in place so each column's
    anchor entry of ``v`` is real and nonnegative (see ``SvdResult``); over
    the last two axes, so a stack is fixed matrix by matrix.

    The rotation leaves an anchor an imaginary residue of either sign, about
    1e-17, which decides where a quantizer snaps it.  Where ``exact`` (one
    bool, or one per matrix of a stack) holds, each anchor of that matrix
    is then written as its magnitude, so its imaginary part is exactly 0.
    """
    # columns as rows: the reductions then run over contiguous memory
    mags = np.abs(v).swapaxes(-1, -2).copy()
    anchors = np.argmax(mags >= (1.0 - GAUGE_TIE) * mags.max(axis=-1, keepdims=True), axis=-1)
    # one gather of every anchor by flat index, for a matrix or a stack
    n, m = v.shape[-2:]
    first = np.arange(0, v.size, n * m).reshape(anchors.shape[:-1] + (1,))
    at = first + anchors * m + np.arange(m)
    p = v.ravel()[at]
    # hypot, not np.abs: it rounds each magnitude exactly as scalar abs() does
    mag = np.hypot(p.real, p.imag)
    rot = np.divide(p, mag, out=np.ones_like(p), where=mag > 0.0).conjugate()
    v *= rot[..., None, :]
    u *= rot[..., None, :]
    if np.any(exact):
        exact = np.broadcast_to(exact, anchors.shape[:-1])
        v.put(at[exact], mag[exact])


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
def _gram_drivers():
    """``(zherk, zheevr)`` of the OpenBLAS numpy has loaded (``_openblas``),
    or None where the library or either symbol is missing.  Both run in
    that library's thread pool, the one ``blas_thread_control`` sets."""
    lib = _openblas()
    herk, heevr = (getattr(lib, name, None) for name in (_HERK_SYMBOL, _HEEVR_SYMBOL))
    if herk is None or heevr is None:
        return None
    i64, char, dbl = ctypes.c_int64, ctypes.c_char, ctypes.c_double
    column_major = np.ctypeslib.ndpointer(np.complex128, ndim=2, flags="F_CONTIGUOUS")
    herk.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, dbl,  # order, uplo, trans, n, k, alpha
        np.ctypeslib.ndpointer(np.complex128, ndim=2, flags="C_CONTIGUOUS"), i64,  # a, lda
        dbl, column_major, i64,  # beta, c, ldc
    ]
    herk.restype = None
    heevr.argtypes = [
        ctypes.c_int, char, char, char, i64, column_major, i64,  # layout, jobz, range, uplo, a
        dbl, dbl, i64, i64, dbl,  # vl, vu, il, iu, abstol
        np.ctypeslib.ndpointer(np.int64, ndim=1),  # m
        np.ctypeslib.ndpointer(np.float64, ndim=1),  # w
        column_major, i64,  # z, ldz
        np.ctypeslib.ndpointer(np.int64, ndim=1),  # isuppz
    ]
    heevr.restype = i64
    return herk, heevr


# one Philox per thread, restarted for each stream a draw reads
_streams = threading.local()


def _restarted(master_seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, restarted at the origin of the stream
    ``(master_seed, stream)``: the one place a stream is keyed.

    The Philox key is ``[master_seed, stream]``, each mod 2^64, so a
    negative seed names its residue's stream.  Bitwise a fresh Philox with
    that key, without building one (and the SeedSequence its constructor
    gathers): the state is set to counter 0, the key and an empty buffer.
    The generator is shared, so read it to the end of one draw before the
    next restart.
    """
    if not hasattr(_streams, "gen"):
        _streams.gen = np.random.Generator(np.random.Philox(key=0))
        _streams.state = _streams.gen.bit_generator.state
    key = _streams.state["state"]["key"]
    key[0], key[1] = master_seed & _MASK64, stream & _MASK64
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


def _complex_gaussians(master_seed: int, streams, n: int) -> np.ndarray:
    """``_complex_gaussian`` of ``n`` samples from the start of each stream
    ``(master_seed, s)`` of ``streams``, stacked as (len(streams), n): each
    row bitwise its stream's."""
    z = np.empty((len(streams), 2 * n))
    for stream, row in zip(streams, z):
        _restarted(master_seed, stream).standard_normal(out=row)
    z *= _CN_SCALE
    return z.view(complex)


def sample_complex_gaussian(master_seed: int, stream: int, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. CN(0,1) samples (real/imag parts N(0, 1/2)) from
    the stream ``(master_seed, stream)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _complex_gaussians(master_seed, [stream], n)[0]


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
