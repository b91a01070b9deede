"""Correctness gate for the benchmark's result rows.

Every row is checked against invariants that hold at any seed.  At the
default seed and full trial counts it is also compared with the reference
rows in ``reference/<workload>.csv``: text and integer columns must match
exactly, float columns within ``REL_TOL`` (relative) plus ``ABS_TOL``
(absolute).  The tolerance passes last-bit LAPACK drift, since every rate
is an average of O(10) bits printed to 12 significant digits, and fails a
wrong rate.

Run ``python3 perfbench/gate.py`` to rewrite the reference rows from the
program in this checkout; do so only in a change meant to alter results.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-9
ABS_TOL = 1e-12
# |mean_gap| bound, in bits, for schemes that reach capacity exactly
GAP_TOL = 1e-9
EXACT_SCHEMES = ("digital", "double_rf", "mu_zf_digital")
MU_SCHEMES = ("mu_zf_hybrid", "mu_zf_digital")
FLOAT_COLUMNS = (
    "sweep_value",
    "rho_db",
    "mean_rate",
    "std_err",
    "analytic_rate",
    "mean_gap",
    "inactive_fraction",
)


def _float(text: str) -> float:
    return float(text) if text else math.nan


def compare_with_reference(row: dict, ref: dict) -> list[str]:
    problems = []
    for col, want in ref.items():
        got = row.get(col)
        if col in FLOAT_COLUMNS and got and want:
            a, b = float(got), float(want)
            if not abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL:
                problems.append(f"{col}={got} differs from reference {want}")
        elif got != want:
            problems.append(f"{col}={got!r} differs from reference {want!r}")
    return problems


def invariants(row: dict, config) -> list[str]:
    """Checks that hold for any seed."""
    kind = config.scheme.kind
    problems = []
    expect = {
        "experiment": config.name,
        "n_t": str(config.channel.n_t),
        "n_r": str(config.channel.n_r),
        "k": str(config.k),
        "m": str(config.m),
        "trials": str(config.trials),
    }
    for col, want in expect.items():
        if row.get(col) != want:
            problems.append(f"{col}={row.get(col)!r}, config says {want!r}")
    try:
        excluded = int(row["excluded"])
    except (KeyError, ValueError):
        return problems + [f"excluded={row.get('excluded')!r} is not an integer"]
    if not 0 <= excluded <= config.trials:
        problems.append(f"excluded={excluded} outside [0, {config.trials}]")
    if excluded == config.trials:
        return problems
    rate, gap = _float(row["mean_rate"]), _float(row["mean_gap"])
    if not (math.isfinite(rate) and rate >= 0.0):
        problems.append(f"mean_rate={row['mean_rate']!r} is not a finite rate")
    if not math.isfinite(gap):
        problems.append(f"mean_gap={row['mean_gap']!r} is not finite")
    elif kind in EXACT_SCHEMES and abs(gap) > GAP_TOL:
        problems.append(f"mean_gap={gap!r} should be 0 for {kind}")
    elif kind not in MU_SCHEMES and gap < -GAP_TOL:
        problems.append(f"mean_gap={gap!r} < 0: rate above capacity")
    inactive = _float(row["inactive_fraction"])
    if kind == "selection":
        if not 0.0 <= inactive < 1.0:
            problems.append(f"inactive_fraction={row['inactive_fraction']!r} outside [0, 1)")
    elif not math.isnan(inactive):
        problems.append(f"inactive_fraction={row['inactive_fraction']!r} for {kind}")
    return problems


def load_reference(workload: str) -> dict[str, dict]:
    with open(REFERENCE_DIR / f"{workload}.csv", newline="") as handle:
        return {row["experiment"]: row for row in csv.DictReader(handle)}


def check_row(row: dict | None, config, reference: dict[str, dict] | None) -> list[str]:
    """All problems with one point's row; ``None`` means the point raised."""
    if row is None:
        return ["the point raised"]
    problems = invariants(row, config)
    if reference is not None:
        ref = reference.get(config.name)
        if ref is None:
            problems.append("no reference row")
        else:
            problems += compare_with_reference(row, ref)
    return problems


def write_reference() -> None:
    beamsim = workloads.import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        configs = workloads.build_configs(name, workloads.DEFAULT_SEED)
        rows = [
            beamsim.experiments.result_row(c, beamsim.run_experiment(c).summary)
            for c in configs
        ]
        for row, cfg in zip(rows, configs):
            problems = invariants(row, cfg)
            if problems:
                sys.exit(f"{cfg.name}: {problems}")
        beamsim.write_csv(rows, REFERENCE_DIR / f"{name}.csv")
        print(f"wrote {REFERENCE_DIR / (name + '.csv')}")


if __name__ == "__main__":
    write_reference()
