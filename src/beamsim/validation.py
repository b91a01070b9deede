"""Self-check suite behind ``beamsim validate``.

Each check exercises one invariant of the library with a fixed random
seed and tolerances sized at five-plus standard errors, so a seed change
must not flip any outcome.  The singular-value cross-check uses a cyclic
Jacobi eigensolver written independently of the SVD path it verifies.

The checks draw, factor, design and rate their trials as stacks, through
the same functions a trial runs.  A draw that a stage refuses (a rank
below k, or a rate the evaluator cannot take) fails the check; a design
refusal is counted where a check says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form
from .beamformers import PhaseResolution, _within, mixed_designs, quantized_designs
from .channel import (
    GEOMETRIC,
    ChannelModel,
    ChannelRealization,
    channel_svds,
    draw_channels,
    draw_paths,
    steering_vector,
)
from .configio import parse_config_text, serialize_config
from .errors import BeamsimError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    Scheme,
    _rayleigh,
    result_row,
    run_experiment,
    trial_batches,
)
from .linalg import (
    SeededRng,
    kept_rows,
    ks_statistic,
    normal_cdf,
    rayleigh_cdf,
    sample_complex_gaussian,
    thin_svd,
)
from .rates import capacity_streams, p2p_streams, waterfill

HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = " ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{status} {self.name} {details}".rstrip()


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".4g")
    return str(v)


def cyclic_jacobi_eigvalsh(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, descending.

    Independent of LAPACK; the SVD cross-check runs it on the Gram matrix.
    Sweeps stop once the off-diagonal norm is at most 1e-13 of the matrix
    norm, and BeamsimError is raised if 100 sweeps do not get there.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        return np.diag(a).real.copy()
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(100):
        off = float(np.linalg.norm(a[off_mask]))
        if off <= 1e-13 * scale:
            return np.sort(np.diag(a).real)[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                # relative skip also avoids overflow on subnormal entries
                if abs(apq) <= 1e-18 * scale:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp = c * a[p, :] - s * phase * a[q, :]
                rq = s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rp, rq
                cp = c * a[:, p] - s * np.conj(phase) * a[:, q]
                cq = s * phase * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = cp, cq
    raise BeamsimError("Jacobi sweeps did not converge")


def _draws(model: ChannelModel, seed: int, trials: int) -> ChannelRealization:
    """The draws of ``model`` on the streams (seed, 0..trials - 1), as one stack."""
    return draw_channels(model, [SeededRng(seed, t) for t in range(trials)])


def _factored_batches(n: int, k: int, trials: int, seed: int):
    """The rank-k factors and rank mask of each batch of the Rayleigh n x n
    draws on the streams (seed, 0..trials - 1), batched as a run of those
    trials is (``trial_batches``): no stack holds more than BATCH_BYTES of
    draws, so a large n does not stack every draw's full SVD at once."""
    config = replace(_tiny_config(seed), channel=_rayleigh(n), trials=trials)
    for batch in trial_batches(config):
        yield channel_svds(draw_channels(config.channel, [SeededRng(seed, t) for t in batch]), k)


def _rates(chan: ChannelRealization, made, rho: float) -> np.ndarray:
    """The sum rate of each draw of the stack ``chan`` under a builder's
    ``(designs, mask)``: NaN where the builder or the rate evaluator
    refused the draw, so that a check reading it fails."""
    bf, ok = made
    (kept,) = kept_rows(ok, chan)
    per, rated = p2p_streams(kept, bf, rho)
    out = np.full(ok.shape, math.nan)
    out[np.flatnonzero(ok)[rated]] = per.sum(axis=-1)
    return out


def _random_complex(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / math.sqrt(2.0)


def check_svd_factors(seed: int = DEFAULT_SEED) -> CheckResult:
    """Unitarity, descending order and reconstruction of thin_svd output."""
    gen = np.random.default_rng(seed)
    worst_unitary = 0.0
    worst_recon = 0.0
    ordered = True
    for _ in range(40):
        rows, cols = int(gen.integers(2, 17)), int(gen.integers(2, 17))
        full = min(rows, cols)
        m = int(gen.integers(1, full + 1))
        a = _random_complex(gen, rows, cols)
        res = thin_svd(a, m)
        eye = np.eye(m)
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(res.u.conj().T @ res.u - eye))),
            float(np.max(np.abs(res.v.conj().T @ res.v - eye))),
        )
        ordered = ordered and bool(np.all(np.diff(res.sigma) <= 0)) and bool(np.all(res.sigma >= 0))
        resid = np.linalg.norm(a - res.u @ np.diag(res.sigma) @ res.v.conj().T)
        if m == full:
            worst_recon = max(worst_recon, resid / np.linalg.norm(a) / 1e-8)
        else:
            tail = np.linalg.svd(a, compute_uv=False)[m]
            worst_recon = max(worst_recon, resid / (tail * (1 + 1e-8) * math.sqrt(full)))
    passed = worst_unitary <= 1e-10 and ordered and worst_recon <= 1.0
    return CheckResult(
        "svd_factors",
        passed,
        {"max_unitarity_dev": worst_unitary, "recon_vs_bound": worst_recon, "ordered": ordered},
    )


def check_svd_oracle(seed: int = DEFAULT_SEED) -> CheckResult:
    """Singular values agree with the Jacobi Gram-matrix eigensolver."""
    gen = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(100):
        rows, cols = int(gen.integers(2, 13)), int(gen.integers(2, 13))
        a = _random_complex(gen, rows, cols)
        m = min(rows, cols)
        sv = thin_svd(a, m).sigma
        lam = cyclic_jacobi_eigvalsh(a.conj().T @ a) if cols <= rows else cyclic_jacobi_eigvalsh(a @ a.conj().T)
        oracle = np.sqrt(np.maximum(lam[:m], 0.0))
        rel = np.abs(sv - oracle) / np.maximum(oracle, 1e-30)
        worst = max(worst, float(np.max(rel)))
    return CheckResult("svd_oracle", worst <= 1e-8, {"max_rel_err": worst, "tol": 1e-8})


def check_gaussian_moments(seed: int = DEFAULT_SEED) -> CheckResult:
    """CN(0,1) sampler moments and distribution shape."""
    z = sample_complex_gaussian(SeededRng(seed, 17), 100_000)
    mean_sq = float(np.mean(np.abs(z) ** 2))
    mean_abs = float(np.mean(np.abs(z)))
    ks_real = ks_statistic(z.real, normal_cdf)
    again = sample_complex_gaussian(SeededRng(seed, 17), 100_000)
    reproducible = bool(np.array_equal(z, again))
    passed = (
        0.99 <= mean_sq <= 1.01
        and abs(mean_abs - HALF_SQRT_PI) <= 0.01 * HALF_SQRT_PI
        and ks_real <= 0.01
        and reproducible
    )
    return CheckResult(
        "complex_gaussian_moments",
        passed,
        {"mean_abs_sq": mean_sq, "mean_abs": mean_abs, "ks_real": ks_real, "reproducible": reproducible},
    )


def check_waterfill_kkt(seed: int = DEFAULT_SEED) -> CheckResult:
    """Budget met exactly and all active streams share one water level."""
    gen = np.random.default_rng(seed + 2)
    worst_budget = 0.0
    worst_level = 0.0
    slack_ok = True
    for _ in range(1000):
        n = int(gen.integers(1, 9))
        gains = gen.uniform(0.0, 4.0, n)
        if not np.any(gains > 0):
            gains[0] = 1.0
        rho = float(10 ** gen.uniform(-2, 4))
        p = waterfill(gains, rho)
        worst_budget = max(worst_budget, abs(float(p.sum()) - 1.0))
        active = p > 0
        levels = p[active] + 1.0 / (rho * gains[active])
        worst_level = max(worst_level, float(levels.max() - levels.min()))
        mu = float(levels.max())
        off = (~active) & (gains > 0)
        if np.any(1.0 / (rho * gains[off]) < mu - 1e-9):
            slack_ok = False
    passed = worst_budget <= 1e-12 and worst_level <= 1e-9 and slack_ok
    return CheckResult(
        "waterfill_kkt",
        passed,
        {"budget_err": worst_budget, "level_spread": worst_level, "inactive_ok": slack_ok},
    )


def check_channel_generation(seed: int = DEFAULT_SEED) -> CheckResult:
    """Steering norms, energy normalization, rank-1 single path, determinism."""
    gen = np.random.default_rng(seed + 3)
    worst_norm = 0.0
    for _ in range(50):
        phi = float(gen.uniform(0.0, math.pi))
        n = int(gen.integers(1, 200))
        worst_norm = max(worst_norm, abs(np.linalg.norm(steering_vector(phi, n)) - 1.0))

    energy = float(np.mean(np.abs(_draws(_rayleigh(32), seed, 64).h) ** 2))

    geo1 = ChannelModel(GEOMETRIC, 16, 16, l_paths=1)
    h1 = draw_channels(geo1, [SeededRng(seed, 999)]).h[0]
    s = np.linalg.svd(h1, compute_uv=False)
    rank1 = s[1] <= 1e-8 * s[0]

    geo5 = ChannelModel(GEOMETRIC, 64, 64, l_paths=5)
    norms = [np.linalg.norm(h) ** 2 / (64 * 64) for h in _draws(geo5, seed, 200).h]
    geo_energy = float(np.mean(norms))

    c1 = draw_channels(geo5, [SeededRng(seed, 5)])
    c2 = draw_channels(geo5, [SeededRng(seed, 5)])
    deterministic = bool(np.array_equal(c1.h, c2.h))
    sorted_paths = bool(np.all(np.diff(np.abs(c1.beta[0])) <= 0))

    passed = (
        worst_norm <= 1e-12
        and 0.98 <= energy <= 1.02
        and rank1
        and 0.9 <= geo_energy <= 1.1
        and deterministic
        and sorted_paths
    )
    return CheckResult(
        "channel_generation",
        passed,
        {
            "steer_norm_err": worst_norm,
            "rayleigh_energy": energy,
            "rank1": rank1,
            "geo_energy": geo_energy,
            "deterministic": deterministic,
            "paths_sorted": sorted_paths,
        },
    )


def _pooled_v_amplitudes(n: int, k: int, trials: int, seed: int) -> tuple[np.ndarray, bool]:
    """sqrt(n) |V| of ``trials`` Rayleigh n x n draws' rank-k factors, and
    whether every draw has rank k."""
    factored = list(_factored_batches(n, k, trials, seed))
    samples = np.concatenate([math.sqrt(n) * np.abs(svd.v).ravel() for svd, _ in factored])
    return samples, all(ranked.all() for _, ranked in factored)


def check_singular_vector_amplitude_law(
    seed: int = DEFAULT_SEED, n: int = 64, trials: int = 300, tol: float = 0.08
) -> CheckResult:
    """Scaled singular-vector amplitudes follow Rayleigh(1/sqrt(2))."""
    samples, ranked = _pooled_v_amplitudes(n, 4, trials, seed + 4)
    ks = ks_statistic(samples, rayleigh_cdf)
    return CheckResult(
        f"singular_vector_amplitude_law_n{n}",
        ks <= tol and ranked,
        {"ks": ks, "tol": tol, "samples": samples.size},
    )


def check_steering_alignment(seed: int = DEFAULT_SEED) -> CheckResult:
    """Dominant singular vectors of a sparse channel align with its steering
    vectors once angles are two beamwidths apart and gains well separated."""
    n, l = 256, 3
    model = ChannelModel(GEOMETRIC, n, n, l_paths=l)
    sep = 4.0 / n
    streams, angles = [], []
    attempts = 0
    while len(streams) < 20 and attempts < 4000:
        attempts += 1
        stream = SeededRng(seed + 6, attempts)
        beta, phi_t, phi_r = draw_paths(model, stream)
        cos_t = np.array([math.cos(p) for p in phi_t])
        cos_r = np.array([math.cos(p) for p in phi_r])
        if min(np.min(np.abs(np.subtract.outer(cos_t, cos_t))[np.triu_indices(l, 1)]),
               np.min(np.abs(np.subtract.outer(cos_r, cos_r))[np.triu_indices(l, 1)])) < sep:
            continue
        # near-tied gains make the descending-order matching ill-posed at finite n
        betas = np.abs(beta)
        if np.any(betas[:-1] / betas[1:] < 1.3):
            continue
        streams.append(stream)
        angles.append(phi_t)
    draws = len(streams)
    worst, ranked = 1.0, False
    if draws == 20:
        svd, ok = channel_svds(draw_channels(model, streams), l)
        ranked = bool(ok.all())
        for v, phi_t in zip(svd.v, angles):
            for idx, phi in enumerate(phi_t):
                worst = min(worst, abs(np.vdot(v[:, idx], steering_vector(float(phi), n))))
    passed = ranked and worst >= 0.95
    return CheckResult(
        "steering_alignment",
        passed,
        {"min_alignment": worst, "accepted_draws": draws},
    )


def check_geometric_factorization(seed: int = DEFAULT_SEED) -> CheckResult:
    """Geometric draws factored from their paths match the dense SVD.

    Singular values agree to 1e-12 of sigma_1 (the accuracy either
    factorization guarantees) and every singular-vector pair aligns to
    within 1e-12 of unit inner product.
    """
    worst_sigma = 0.0
    worst_misalign = 0.0
    draws = 0
    ranked = True
    for n in (16, 64, 256):
        for l in (1, 2, 5):
            model = ChannelModel(GEOMETRIC, n, n, l_paths=l)
            chan = draw_channels(model, [SeededRng(seed + 17, draws + t) for t in range(4)])
            draws += 4
            dense = thin_svd(chan.h, l)
            fast, ok = channel_svds(chan, l)
            ranked = ranked and bool(ok.all())
            for t in range(4):
                d, f = dense[t], fast[t]
                worst_sigma = max(
                    worst_sigma, float(np.max(np.abs(f.sigma - d.sigma))) / d.sigma[0]
                )
                for a, b in ((d.u, f.u), (d.v, f.v)):
                    align = float(np.min(np.abs(np.sum(a.conj() * b, axis=0))))
                    worst_misalign = max(worst_misalign, 1.0 - align)
    passed = worst_sigma <= 1e-12 and worst_misalign <= 1e-12 and ranked
    return CheckResult(
        "geometric_factorization",
        passed,
        {"max_sigma_err": worst_sigma, "max_misalignment": worst_misalign, "draws": draws},
    )


# every point-to-point scheme; mixed runs k + ceil(k / 2) chains
_P2P_SCHEMES = (
    Scheme("digital"),
    Scheme("svd_phase"),
    Scheme("double_rf"),
    Scheme("mixed"),
    Scheme("quantized", bits=2),
    Scheme("selection", beta_percent=25.0),
)


def check_geometric_projection(seed: int = DEFAULT_SEED) -> CheckResult:
    """Rates evaluated through the path factors match the dense channel.

    Every point-to-point scheme is built on seeded geometric draws (n in
    {16, 64, 256}, L in {1, 2, 5}, k in {1, L}) and its achievable rate
    is measured twice: through the draw's path factors and through a
    dense copy of its formed ``h``.  The worst relative difference must
    be at most 1e-12.  Designs a draw cannot support (a selection that
    empties a column) are counted as skipped.
    """
    rho = 10.0 ** 3.4
    errors = []
    rates = skipped = draws = 0
    ranked = True
    for n in (16, 64, 256):
        for l in (1, 2, 5):
            model = ChannelModel(GEOMETRIC, n, n, l_paths=l)
            chan = draw_channels(model, [SeededRng(seed + 19, draws + t) for t in range(2)])
            draws += 2
            dense = ChannelRealization(model, h=chan.h)
            for k in sorted({1, l}):
                svd, ok = channel_svds(chan, k)
                ranked = ranked and bool(ok.all())
                for scheme in _P2P_SCHEMES:
                    lo, hi = scheme.spec.m_per_k
                    config = ExperimentConfig(
                        name="projection",
                        channel=model,
                        k=k,
                        m=(lo * k + hi * k + 1) // 2,
                        rho_db=34.0,
                        scheme=scheme,
                    )
                    made = scheme.spec.design(chan, svd, config, rho)
                    ok = made[1]
                    skipped += int(np.count_nonzero(~ok))
                    rates += int(np.count_nonzero(ok))
                    fast, ref = _rates(chan, made, rho)[ok], _rates(dense, made, rho)[ok]
                    errors.append(np.abs(fast - ref) / np.abs(ref))
    worst = float(np.max(np.concatenate(errors), initial=0.0))  # NaN for a NaN rate
    return CheckResult(
        "geometric_projection",
        worst <= 1e-12 and ranked,
        {"max_rel_rate_err": worst, "rates": rates, "skipped": skipped},
    )


def check_phase_matching(seed: int = DEFAULT_SEED) -> CheckResult:
    """Per-column optimality of phase copying among unit-modulus vectors.

    Both forms: maximal |v^H f| and minimal ||f/sqrt(n) - v|| per column
    against 1000 random unit-modulus candidates.
    """
    gen = np.random.default_rng(seed + 7)
    ok = True
    margin = math.inf
    for _ in range(5):
        chan = draw_channels(_rayleigh(32), [SeededRng(seed + 8, int(gen.integers(1 << 30)))])
        svd, ranked = channel_svds(chan, 4)
        ok = ok and bool(ranked[0])
        f_rf = np.exp(1j * np.angle(svd.v[0]))
        n = chan.shape[1]
        for k in range(4):
            v = svd.v[0, :, k]
            f = f_rf[:, k]
            best = abs(np.vdot(v, f))
            dist = np.linalg.norm(f / math.sqrt(n) - v)
            cands = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, (1000, n)))
            inner = np.abs(cands.conj() @ v)
            ok = ok and bool(np.all(best >= inner - 1e-12))
            margin = min(margin, float(best - inner.max()))
            cand_dist = np.linalg.norm(cands.T / math.sqrt(n) - v[:, None], axis=0)
            ok = ok and bool(np.all(dist <= cand_dist + 1e-12))
    return CheckResult("phase_matching_optimality", ok, {"worst_margin": margin})


def check_gauge_invariance(seed: int = DEFAULT_SEED) -> CheckResult:
    """Rates are unchanged by the arbitrary phases of the SVD columns."""
    gen = np.random.default_rng(seed + 9)
    worst = 0.0
    rho = 10.0 ** 3.4
    ranked = True
    for _ in range(5):
        chan = draw_channels(_rayleigh(24), [SeededRng(seed + 10, int(gen.integers(1 << 30)))])
        svd, ok = channel_svds(chan, 3)
        ranked = ranked and bool(ok[0])
        for m in (3, 6):
            base = _rates(chan, mixed_designs(chan, svd, m, rho), rho)[0]
            phases = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, 3))
            rot = replace(svd, u=svd.u * phases, v=svd.v * phases)
            rotated = _rates(chan, mixed_designs(chan, rot, m, rho), rho)[0]
            worst = float(np.maximum(worst, abs(rotated - base)))  # NaN stays NaN
    return CheckResult(
        "gauge_invariance", worst <= 1e-9 and ranked, {"max_rate_delta": worst, "tol": 1e-9}
    )


def check_effective_diagonality(seed: int = DEFAULT_SEED) -> CheckResult:
    """Off-diagonals of V^H F_RF / sqrt(n) shrink with n; diagonals
    concentrate at sqrt(pi)/2."""
    medians = {}
    diag_vals = []
    ranked = True
    for n in (16, 64, 256):
        offs = []
        for svd, ok in _factored_batches(n, 4, 20 if n == 256 else 60, seed + 11 + n):
            ranked = ranked and bool(ok.all())
            for v in svd.v:
                f_rf = np.exp(1j * np.angle(v))
                g = v.conj().T @ f_rf / math.sqrt(n)
                off = np.abs(g[~np.eye(4, dtype=bool)])
                offs.append(off)
                if n == 256:
                    diag_vals.append(np.abs(np.diag(g)))
        medians[n] = float(np.median(np.concatenate(offs)))
    diag_mean = float(np.mean(np.concatenate(diag_vals)))
    passed = (
        ranked
        and medians[16] > medians[64] > medians[256]
        and medians[256] <= 0.15
        and abs(diag_mean - HALF_SQRT_PI) <= 0.05
    )
    return CheckResult(
        "effective_diagonality",
        passed,
        {
            "median_off_16": medians[16],
            "median_off_64": medians[64],
            "median_off_256": medians[256],
            "diag_mean_256": diag_mean,
        },
    )


def check_quantization_bound(seed: int = DEFAULT_SEED, trials: int = 150) -> CheckResult:
    """Measured loss from digital grids stays below the closed-form bound."""
    rho = 10.0 ** 3.4
    chan = _draws(_rayleigh(64), seed + 12, trials)
    svd, ranked = channel_svds(chan, 4)
    analog, ok = mixed_designs(chan, svd, 4, rho)
    r_analog = _rates(chan, (analog, ok), rho)
    (kept,) = kept_rows(ok, chan)
    gaps = {}
    for bits in (2, 3, 4):
        digital, snapped = quantized_designs(kept, analog, PhaseResolution(bits), rho)
        r_digital = _rates(chan, (digital, _within(ok, snapped)), rho)
        gaps[bits] = float(np.mean(r_analog - r_digital))
    passed = bool(ranked.all()) and all(
        gaps[bits] <= closed_form.quant_gap_bound(4, bits) + 0.5 for bits in (2, 3, 4)
    )
    return CheckResult(
        "quantization_rate_bound",
        passed,
        {f"mean_gap_b{b}": gaps[b] for b in (2, 3, 4)},
    )


def check_rate_evaluator(seed: int = DEFAULT_SEED) -> CheckResult:
    """Determinant identity, power-scale neutrality, SNR monotonicity and
    the capacity upper bound."""
    gen = np.random.default_rng(seed + 13)
    a = _random_complex(gen, 6, 6)
    psd = a @ a.conj().T
    sign, logdet = np.linalg.slogdet(np.eye(6) + psd)
    eig_form = float(np.sum(np.log2(1.0 + np.maximum(np.linalg.eigvalsh(psd), 0.0))))
    det_vs_eig = abs(float(logdet) / math.log(2.0) - eig_form)

    chan = _draws(_rayleigh(16), seed + 14, 1)
    rho = 10.0 ** 3.4
    svd, ranked = channel_svds(chan, 4)
    bf, ok = mixed_designs(chan, svd, 4, rho)
    base = _rates(chan, (bf, ok), rho)[0]
    scaled = replace(bf, f_rf=bf.f_rf * math.sqrt(2.0))
    scale_delta = float(abs(_rates(chan, (scaled, ok), rho)[0] - base))

    monotone = True
    prev = -math.inf
    for rho_db in range(0, 41, 5):
        r = 10.0 ** (rho_db / 10.0)
        rate = _rates(chan, mixed_designs(chan, svd, 4, r), r)[0]
        monotone = monotone and bool(rate >= prev - 1e-12)
        prev = rate

    chan = _draws(_rayleigh(12), seed + 15, 5)
    svd, ok = channel_svds(chan, 3)
    ranked = ranked[0] and ok.all()
    cap = capacity_streams(svd.sigma, rho).sum(axis=-1)
    dominated = all(  # phase-only and double-RF
        np.all(_rates(chan, mixed_designs(chan, svd, m, rho), rho) <= cap + 1e-9) for m in (3, 6)
    )

    passed = (
        bool(ranked) and det_vs_eig <= 1e-8 and scale_delta <= 1e-9 and monotone and dominated
    )
    return CheckResult(
        "rate_evaluator",
        passed,
        {
            "det_vs_eig": det_vs_eig,
            "scale_delta": scale_delta,
            "monotone_in_rho": monotone,
            "capacity_dominates": dominated,
        },
    )


def check_closed_form_web(seed: int = DEFAULT_SEED) -> CheckResult:
    """Exact consistency identities plus monotonicity of the bounds."""
    worst = 0.0
    for k in (1, 2, 3, 4, 6, 8):
        worst = max(worst, abs(closed_form.mixed_gap(k, k) - closed_form.svd_phase_gap(k)))
        worst = max(worst, abs(closed_form.mixed_gap(k, 2 * k)))
        worst = max(worst, abs(closed_form.selection_gap(k, 0.0) - closed_form.svd_phase_gap(k)))
        worst = max(worst, abs(2.0 * closed_form.mu_zf_gap(k) - closed_form.svd_phase_gap(k)))
    alphas = np.linspace(0.0, 4.0, 200)
    means = [closed_form.truncated_rayleigh_mean(float(a)) for a in alphas]
    decreasing = bool(np.all(np.diff(means) < 0.0))
    bounds = [closed_form.quant_gap_bound(4, b) for b in range(2, 15)]
    bound_dec = bool(np.all(np.diff(bounds) < 0.0)) and bounds[-1] <= 1e-4
    nonneg = all(
        closed_form.svd_phase_gap(k) >= 0
        and closed_form.mu_zf_gap(k) >= 0
        and closed_form.selection_gap(k, 25.0) >= 0
        for k in (1, 2, 4, 8)
    )
    passed = worst <= 1e-12 and decreasing and bound_dec and nonneg
    return CheckResult(
        "closed_form_web",
        passed,
        {"max_identity_err": worst, "mean_decreasing": decreasing, "bound_decreasing": bound_dec},
    )


def _tiny_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="determinism_probe",
        channel=_rayleigh(16),
        k=4,
        m=4,
        rho_db=34.0,
        scheme=Scheme("svd_phase"),
        trials=40,
        master_seed=seed,
    )


def check_harness_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    """Summaries and CSV rows are byte-identical across runs and workers,
    and the config survives an INI round trip."""
    config = _tiny_config(seed)
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    r3 = run_experiment(config, workers=2)
    row1 = result_row(config, r1.summary)
    same_serial = r1.summary == r2.summary and row1 == result_row(config, r2.summary)
    same_workers = r1.summary == r3.summary and row1 == result_row(config, r3.summary)
    roundtrip = parse_config_text(serialize_config(config)) == config
    passed = same_serial and same_workers and roundtrip
    return CheckResult(
        "harness_determinism",
        passed,
        {
            "repeat_identical": same_serial,
            "workers_identical": same_workers,
            "roundtrip": roundtrip,
        },
    )


def check_trial_independence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Lag-1 autocorrelation of per-trial rates is negligible."""
    config = replace(_tiny_config(seed), name="independence_probe", trials=500)
    result = run_experiment(config)
    rates = np.array([r.rate_bits for r in result.records])
    centered = rates - rates.mean()
    denom = float(np.sum(centered**2))
    lag1 = float(np.sum(centered[:-1] * centered[1:]) / denom)
    return CheckResult("trial_independence", abs(lag1) <= 0.1, {"lag1_autocorr": lag1})


def check_gap_convergence(seed: int = DEFAULT_SEED, trials: int = 200) -> CheckResult:
    """Mean capacity gap of the phase-only design approaches its closed form
    as the array grows (nonincreasing within combined standard errors)."""
    target = closed_form.svd_phase_gap(4)
    devs = []
    ses = []
    excluded = 0
    for n in (32, 64, 128, 256, 512):
        config = replace(
            _tiny_config(seed + 16), name="convergence_probe", channel=_rayleigh(n), trials=trials
        )
        summary = run_experiment(config).summary
        devs.append(abs(summary.mean_gap - target))
        ses.append(summary.se_gap)
        excluded += summary.excluded_count
    ok = excluded == 0 and all(
        devs[i + 1] <= devs[i] + math.hypot(ses[i], ses[i + 1]) for i in range(len(devs) - 1)
    )
    return CheckResult(
        "gap_convergence",
        ok,
        {f"dev_n{n}": d for n, d in zip((32, 64, 128, 256, 512), devs)},
    )


DEFAULT_CHECKS = (
    check_svd_factors,
    check_svd_oracle,
    check_gaussian_moments,
    check_waterfill_kkt,
    check_channel_generation,
    check_singular_vector_amplitude_law,
    check_steering_alignment,
    check_geometric_factorization,
    check_geometric_projection,
    check_phase_matching,
    check_gauge_invariance,
    check_effective_diagonality,
    check_quantization_bound,
    check_rate_evaluator,
    check_closed_form_web,
    check_harness_determinism,
    check_trial_independence,
)


def run_validation(strict: bool = False) -> list[CheckResult]:
    """Run the invariant suite at DEFAULT_SEED; ``strict`` adds the
    large-array checks."""
    results = [check(DEFAULT_SEED) for check in DEFAULT_CHECKS]
    if strict:
        results.append(
            check_singular_vector_amplitude_law(DEFAULT_SEED, n=256, trials=120, tol=0.05)
        )
        results.append(check_gap_convergence(DEFAULT_SEED))
    return results
