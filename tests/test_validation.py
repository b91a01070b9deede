"""The self-check suite itself: all green, mutation-sensitive, seed-robust."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beamsim.experiments import DEFAULT_SEED, ExperimentConfig, Scheme, _rayleigh, run_experiment
from beamsim.linalg import SvdResult, adjoint, thin_svd
from beamsim import beamformers, channel, validation


@pytest.mark.parametrize("check", validation.DEFAULT_CHECKS, ids=lambda c: c.__name__)
def test_default_check_passes(check):
    result = check(DEFAULT_SEED)
    assert result.passed, result.line()


def faulty_snap(x, bits):
    """Rounds (-pi, pi] angles against the [0, 2pi) grid: phases in the
    negative half all collapse toward zero, a genuinely non-circular fault."""
    step = 2 * math.pi / (1 << bits)
    grid = step * np.arange(1 << bits)
    ang = np.angle(x)
    idx = np.argmin(np.abs(ang[..., None] - grid), axis=-1)
    return np.exp(1j * grid[idx])


def test_quantization_bound_check_catches_injected_fault(monkeypatch):
    good = validation.check_quantization_bound(DEFAULT_SEED, trials=40)
    monkeypatch.setattr(beamformers, "_snap_phases", faulty_snap)
    bad = validation.check_quantization_bound(DEFAULT_SEED, trials=40)
    assert good.passed
    assert not bad.passed


def test_quantization_check_measures_the_runners_pipeline():
    # each gap is, bitwise, the mean over the runner's records of the same
    # draws of svd_phase's rate minus quantized(b)'s
    measured = validation.check_quantization_bound(DEFAULT_SEED, trials=40).measured

    def rates(scheme):
        config = ExperimentConfig(
            "q", _rayleigh(64), 4, 4, 34.0, scheme, trials=40, master_seed=DEFAULT_SEED + 12
        )
        records = run_experiment(config).records
        assert not any(r.degenerate for r in records)
        return np.array([r.rate_bits for r in records])

    analog = rates(Scheme("svd_phase"))
    for b in (2, 3, 4):
        want = float(np.mean(analog - rates(Scheme("quantized", bits=b))))
        assert measured[f"mean_gap_b{b}"] == want, b


def factored_svd_without_q(a_r, g, a_t, m):
    """Treats the steering blocks as orthonormal: no QR is taken, so the
    factors are never rotated by Q and the overlap between paths is ignored."""
    core = thin_svd(g[..., None, :] * np.eye(g.shape[-1]), m)
    return SvdResult(u=a_r @ core.u, sigma=core.sigma, v=a_t @ core.v)


def test_geometric_factorization_check_catches_skipped_rotation(monkeypatch):
    assert validation.check_geometric_factorization(DEFAULT_SEED).passed
    monkeypatch.setattr(channel, "factored_svd", factored_svd_without_q)
    bad = validation.check_geometric_factorization(DEFAULT_SEED)
    assert not bad.passed
    assert bad.measured["max_sigma_err"] > 1e-6


real_project = channel.ChannelRealization.project


def project_without_gain(chan, w, f):
    """W^H a_r a_t^H F: the path gains g are dropped."""
    if chan.factors is None:
        return real_project(chan, w, f)
    a_r, _, a_t = chan.factors
    return (adjoint(w) @ a_r) @ (adjoint(a_t) @ f)


def project_with_conjugate_gain(chan, w, f):
    """W^H a_r diag(conj g) a_t^H F."""
    if chan.factors is None:
        return real_project(chan, w, f)
    a_r, g, a_t = chan.factors
    return ((adjoint(w) @ a_r) * g.conj()[..., None, :]) @ (adjoint(a_t) @ f)


@pytest.mark.parametrize("fault", [project_without_gain, project_with_conjugate_gain])
def test_geometric_projection_check_catches_dropped_gain(monkeypatch, fault):
    assert validation.check_geometric_projection(DEFAULT_SEED).passed
    monkeypatch.setattr(channel.ChannelRealization, "project", fault)
    bad = validation.check_geometric_projection(DEFAULT_SEED)
    assert not bad.passed
    assert bad.measured["max_rel_rate_err"] > 1e-6


def test_harness_determinism_catches_lossy_serializer(monkeypatch):
    real = validation.serialize_config

    def drop_trials(config):
        return "".join(
            line for line in real(config).splitlines(keepends=True) if not line.startswith("trials")
        )

    monkeypatch.setattr(validation, "serialize_config", drop_trials)
    res = validation.check_harness_determinism(DEFAULT_SEED)
    assert not res.passed
    assert res.measured["roundtrip"] is False


@pytest.mark.parametrize(
    "check",
    [
        validation.check_svd_factors,
        validation.check_gaussian_moments,
        validation.check_waterfill_kkt,
        validation.check_phase_matching,
        validation.check_closed_form_web,
        validation.check_svd_oracle,
    ],
    ids=lambda c: c.__name__,
)
def test_outcomes_stable_under_seed_change(check):
    assert check(DEFAULT_SEED).passed == check(DEFAULT_SEED + 987654321).passed


def test_report_lines_are_machine_readable():
    res = validation.check_closed_form_web(DEFAULT_SEED)
    line = res.line()
    assert line.startswith("PASS ") or line.startswith("FAIL ")
    assert "closed_form_web" in line


def test_strict_checks_pass_at_reduced_scale():
    law = validation.check_singular_vector_amplitude_law(
        DEFAULT_SEED, n=256, trials=60, tol=0.05
    )
    assert law.passed, law.line()
    conv = validation.check_gap_convergence(DEFAULT_SEED, trials=60)
    assert conv.passed, conv.line()


def test_jacobi_eigensolver_matches_numpy():
    gen = np.random.default_rng(123)
    for n in (1, 2, 5, 9):
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        herm = a + a.conj().T
        ours = validation.cyclic_jacobi_eigvalsh(herm)
        ref = np.sort(np.linalg.eigvalsh(herm))[::-1]
        np.testing.assert_allclose(ours, ref, atol=1e-10 * max(1.0, np.linalg.norm(herm)))


def test_import_beamsim_leaves_validate_suite_unloaded():
    src = str(Path(validation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import beamsim, sys; print('beamsim.validation' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"
