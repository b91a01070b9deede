"""Pinned results: the figure CSVs and the records of every scheme.

Run ``PYTHONPATH=src python tests/test_golden.py`` to rewrite the files
under ``tests/golden/``, and only in a change whose results are meant to
change, saying why.  Rewriting a golden to make this suite pass loosens
the check.
"""

import os
from pathlib import Path

import pytest

from beamsim import GEOMETRIC, RAYLEIGH, ChannelModel, ExperimentConfig, Scheme, run_experiment
from beamsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIGURES = ("fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10")
FIGURE_TRIALS = 5

SCHEMES = (
    Scheme("digital"),
    Scheme("svd_phase"),
    Scheme("double_rf"),
    Scheme("mixed"),
    Scheme("quantized", bits=2),
    Scheme("selection", beta_percent=25.0),
    Scheme("mu_zf_hybrid"),
    Scheme("mu_zf_digital"),
)


def record_configs() -> list[ExperimentConfig]:
    """Every scheme on Rayleigh n = 8 and 64 and on geometric L = 5 at n = 16.

    Point-to-point schemes take k = 4 streams on an n x n channel (mixed with
    6 RF chains); multiuser schemes serve k single-antenna users, k = 4 on
    Rayleigh and k = 5 on the geometric channel, whose L = 5 paths need
    n_r >= 5.
    """
    out = []
    for kind, n, l_paths in ((RAYLEIGH, 8, None), (RAYLEIGH, 64, None), (GEOMETRIC, 16, 5)):
        for scheme in SCHEMES:
            multiuser = scheme.spec.multiuser
            k = 5 if multiuser and kind == GEOMETRIC else 4
            m = {"double_rf": 2 * k, "mixed": k + k // 2}.get(scheme.kind, k)
            out.append(
                ExperimentConfig(
                    name=f"{kind}_n{n}_{scheme.label()}",
                    channel=ChannelModel(kind, n, k if multiuser else n, l_paths=l_paths),
                    k=k,
                    m=m,
                    rho_db=34.0,
                    scheme=scheme,
                    trials=4,
                    master_seed=20240611,
                )
            )
    return out


def exclusion_configs() -> list[ExperimentConfig]:
    """Points whose trials are excluded: selection at beta = 90 on Rayleigh
    n = 16, which kills an RF column in about half the draws, and a
    geometric L = 2 channel asked for k = 4 streams, which excludes all."""
    return [
        ExperimentConfig(
            name="rayleigh_n16_selection(beta=90)",
            channel=ChannelModel(RAYLEIGH, 16, 16),
            k=4,
            m=4,
            rho_db=34.0,
            scheme=Scheme("selection", beta_percent=90.0),
            trials=40,
            master_seed=5,
        ),
        ExperimentConfig(
            name="geometric_n16_L2_svd_phase",
            channel=ChannelModel(GEOMETRIC, 16, 16, l_paths=2),
            k=4,
            m=4,
            rho_db=34.0,
            scheme=Scheme("svd_phase"),
            trials=6,
            master_seed=20240611,
        ),
    ]


def record_lines(configs=None) -> list[str]:
    configs = record_configs() if configs is None else configs
    return [f"{c.name} {r!r}" for c in configs for r in run_experiment(c).records]


def write_figures(out: Path, workers: int) -> None:
    argv = ["figure", *FIGURES, "--trials", str(FIGURE_TRIALS), "--out", str(out)]
    assert main([*argv, "--workers", str(workers)]) == 0


def test_records_match_golden():
    golden = (GOLDEN / "records.txt").read_text().splitlines()
    assert record_lines() == golden


def test_exclusions_match_golden():
    golden = (GOLDEN / "exclusions.txt").read_text().splitlines()
    lines = record_lines(exclusion_configs())
    assert lines == golden
    assert 0 < sum("degenerate=True" in line for line in lines[:40]) < 40
    assert all("degenerate=True" in line for line in lines[40:])


@pytest.mark.parametrize("workers", [1, 2])
def test_figure_csvs_match_golden(workers, tmp_path, monkeypatch):
    monkeypatch.delenv("BEAMSIM_SEED", raising=False)
    write_figures(tmp_path, workers)
    for fig_id in FIGURES:
        name = f"{fig_id}.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    os.environ.pop("BEAMSIM_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    write_figures(GOLDEN, workers=1)
    (GOLDEN / "records.txt").write_text("\n".join(record_lines()) + "\n")
    (GOLDEN / "exclusions.txt").write_text("\n".join(record_lines(exclusion_configs())) + "\n")
