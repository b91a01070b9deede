"""Acceptance suite: one test per exit criterion, tolerances pinned.

Each test prints a PASS/FAIL line with the measured values (visible with
``pytest -s`` or on failure); the Monte-Carlo criteria run at 500 trials
on the default master seed.
"""

import math
import time

import numpy as np
import pytest

from beamsim import (
    ChannelModel,
    ExperimentConfig,
    GEOMETRIC,
    PowerModelParams,
    RAYLEIGH,
    draw_channels,
    quant_gap_bound,
    rf_power_consumption,
    run_experiment,
    Scheme,
    selection_gap,
    thin_svd,
)
from beamsim.beamformers import digital_designs, mixed_designs, mu_zf_digital_designs
from beamsim.channel import channel_svds
from beamsim.cli import main as cli_main
from beamsim.experiments import DEFAULT_SEED
from beamsim.rates import p2p_rates
from beamsim.validation import check_quantization_bound, check_singular_vector_amplitude_law

RHO_DB = 34.0
RHO = 10.0**3.4  # == 10.0 ** (RHO_DB / 10.0), the linear SNR run_experiment uses
TRIALS = 500


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


def run_summary(channel, scheme, seed_offset: int, k: int = 4, m: int = 4):
    """Summary of TRIALS trials at RHO on stream DEFAULT_SEED + seed_offset.

    Every trial must complete: the criteria are stated over all draws.
    """
    config = ExperimentConfig(
        name="acceptance",
        channel=channel,
        k=k,
        m=m,
        rho_db=RHO_DB,
        scheme=scheme,
        trials=TRIALS,
        master_seed=DEFAULT_SEED + seed_offset,
    )
    summary = run_experiment(config).summary
    assert summary.excluded_count == 0
    return summary


def test_criterion_1_phase_only_gap_vs_array_size():
    start = time.monotonic()
    s64 = run_summary(ChannelModel(RAYLEIGH, 64, 64), Scheme("svd_phase"), 0)
    s512 = run_summary(ChannelModel(RAYLEIGH, 512, 512), Scheme("svd_phase"), 0)
    g64, se64 = s64.mean_gap, s64.se_gap
    g512, se512 = s512.mean_gap, s512.se_gap
    elapsed = time.monotonic() - start
    ok = abs(g64 - 2.79) <= 0.3 and abs(g512 - 2.79) <= 0.15 and elapsed <= 300.0
    report(
        "criterion-1 phase-only gap",
        ok,
        f"gap(n=64)={g64:.4f}+-{se64:.4f} (2.79+-0.3), "
        f"gap(n=512)={g512:.4f}+-{se512:.4f} (2.79+-0.15), runtime={elapsed:.0f}s<=300s",
    )


def test_criterion_2_exact_factorization():
    start = time.monotonic()
    chan = draw_channels(ChannelModel(RAYLEIGH, 16, 16), DEFAULT_SEED + 1, range(100))
    svd, ranked = channel_svds(chan, 4)
    digital = p2p_rates(chan, digital_designs(chan, svd, RHO), RHO)
    bf, kept = made = mixed_designs(chan, svd, 8, RHO)
    paired = p2p_rates(chan, made, RHO)
    worst_rate = float(np.max(np.abs(paired - digital)))  # NaN where a draw was refused
    v = thin_svd(chan.h, 4).v[kept]
    worst_factor = max(
        (float(np.linalg.norm(f - w)) for f, w in zip(bf.precoder(), v)), default=math.nan
    )
    elapsed = time.monotonic() - start
    ok = ranked.all() and worst_rate <= 1e-9 and worst_factor <= 1e-10 and elapsed <= 60.0
    report(
        "criterion-2 exact factorization",
        ok,
        f"max|rate diff|={worst_rate:.2e}<=1e-9, max||F_RF F_B - V||={worst_factor:.2e}<=1e-10, "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_3_intermediate_chain_count():
    summary = run_summary(ChannelModel(RAYLEIGH, 64, 64), Scheme("mixed"), 2, k=3, m=5)
    mean, se = summary.mean_gap, summary.se_gap
    ok = abs(mean - 0.70) <= 0.3
    report(
        "criterion-3 k=3 m=5 gap",
        ok,
        f"mean gap={mean:.4f}+-{se:.4f} target 0.70+-0.3",
    )


def test_criterion_4_quantization_losses():
    # validate's check draws from stream seed + 12, so this is DEFAULT_SEED + 3
    measured = check_quantization_bound(DEFAULT_SEED - 9, trials=TRIALS).measured
    means = {bits: measured[f"mean_gap_b{bits}"] for bits in (2, 3, 4)}
    in_band = abs(means[2] - 3.5) <= 0.7 and abs(means[3] - 0.7) <= 0.3
    bounded = all(means[b] <= quant_gap_bound(4, b) + 0.5 for b in (2, 3, 4))
    report(
        "criterion-4 quantization",
        in_band and bounded,
        f"mean(R_C-R_D): b2={means[2]:.4f} (3.5+-0.7), b3={means[3]:.4f} (0.7+-0.3), "
        f"b4={means[4]:.4f}<={quant_gap_bound(4, 4) + 0.5:.3f}; bound check {'ok' if bounded else 'violated'}",
    )


def test_criterion_5_multiuser_zero_forcing():
    # a hybrid record's gap is the digital ZF sum rate less its own
    model = ChannelModel(RAYLEIGH, 64, 4)
    summary = run_summary(model, Scheme("mu_zf_hybrid"), 4)
    mean_gap, se = summary.mean_gap, summary.se_gap
    zd, kept = mu_zf_digital_designs(draw_channels(model, DEFAULT_SEED + 4, range(TRIALS)))
    gammas = np.full(TRIALS, math.nan)  # NaN where a draw was refused
    gammas[kept] = zd.gamma_t
    mean_gamma = float(np.mean(gammas))
    ok = abs(mean_gap - 1.4) <= 0.3 and abs(mean_gamma - 1 / 60) <= 0.1 / 60
    report(
        "criterion-5 multiuser",
        ok,
        f"mean(C_sum-R_sum)={mean_gap:.4f}+-{se:.4f} (1.4+-0.3); "
        f"mean gamma_t={mean_gamma:.6f} (1/60={1 / 60:.6f} +-10%)",
    )


def test_criterion_6_selection_gaps():
    stats = {}
    for beta in (0.0, 10.0, 25.0, 50.0):
        s = run_summary(ChannelModel(RAYLEIGH, 64, 64), Scheme("selection", beta_percent=beta), 5)
        stats[beta] = (s.mean_gap, s.se_gap, s.mean_rate, s.se_rate)
    tracking = all(abs(stats[b][0] - selection_gap(4, b)) <= 0.5 for b in (0.0, 10.0, 25.0, 50.0))
    r0, se0 = stats[0.0][2], stats[0.0][3]
    r25, se25 = stats[25.0][2], stats[25.0][3]
    r50 = stats[50.0][2]
    improves = r25 - r0 >= math.hypot(se0, se25)
    fifty_free = abs(r50 - r0) <= 0.5
    detail = ", ".join(
        f"beta={b:g}: gap {stats[b][0]:.4f} vs {selection_gap(4, b):.4f}" for b in stats
    )
    report(
        "criterion-6 selection",
        tracking and improves and fifty_free,
        f"{detail}; R25-R0={r25 - r0:.4f}>= {math.hypot(se0, se25):.4f}, |R50-R0|={abs(r50 - r0):.4f}<=0.5",
    )


def test_criterion_7_amplitude_distribution():
    # validate's check draws from stream seed + 4, so this is DEFAULT_SEED + 6
    measured = {
        n: check_singular_vector_amplitude_law(DEFAULT_SEED + 2, n=n, trials=trials, tol=tol)
        .measured["ks"]
        for n, trials, tol in ((64, 300, 0.08), (256, 120, 0.05))
    }
    ok = measured[64] <= 0.08 and measured[256] <= 0.05
    report(
        "criterion-7 amplitude law",
        ok,
        f"ks(n=64)={measured[64]:.4f}<=0.08, ks(n=256)={measured[256]:.4f}<=0.05",
    )


def test_criterion_8_geometric_convergence():
    sizes = (8, 32, 128, 512)
    means = []
    ses = []
    for n in sizes:
        s = run_summary(ChannelModel(GEOMETRIC, n, n, l_paths=5), Scheme("svd_phase"), 7)
        means.append(s.mean_gap)
        ses.append(s.se_gap)
    nonincreasing = all(
        means[i + 1] <= means[i] + math.hypot(ses[i], ses[i + 1]) for i in range(len(sizes) - 1)
    )
    ok = nonincreasing and means[-1] <= 0.3
    detail = ", ".join(f"n={n}: {m:.4f}" for n, m in zip(sizes, means))
    report("criterion-8 geometric", ok, f"{detail}; final<=0.3 and nonincreasing={nonincreasing}")


def test_criterion_9_power_model():
    all_on = rf_power_consumption(
        PowerModelParams(p_ps_mw=111.0, p_s_mw=0.0, m=4, n_t=64, beta_percent=0.0)
    )
    half_off = rf_power_consumption(
        PowerModelParams(p_ps_mw=111.0, p_s_mw=1.0, m=4, n_t=64, beta_percent=50.0)
    )
    ok = all_on == 28.416 and half_off == 14.464
    report("criterion-9 power model", ok, f"all-on={all_on} W (28.416), half-off={half_off} W (14.464)")


def test_criterion_10_validate_suite(capsys):
    code = cli_main(["validate"])
    out = capsys.readouterr().out
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    report(
        "criterion-10 validate",
        code == 0 and not failures,
        f"exit={code}, failing checks={failures or 'none'}",
    )
