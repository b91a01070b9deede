"""Command line interface.

    beamsim run <config> [--out FILE] [--workers N]
    beamsim sweep <config> --param NAME --values V1,V2,... [--out FILE] [--workers N]
    beamsim figure <id> [<id> ...] [--trials N] [--seed S] [--out DIR] [--workers N]
    beamsim validate [--strict]

BEAMSIM_SEED in the environment overrides the config seed (an explicit
--seed flag still wins).  Progress goes to stderr: a line as each point
starts, and one with its elapsed time, trials/s and excluded count as it
finishes.  Exit codes: 0 success, 1 validation failure,
2 config error, 3 I/O error, 130 interrupted (SIGINT); a file given
with --out keeps the rows of the points that finished.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .configio import number_list, parse_config, write_csv
from .errors import ConfigError
from .experiments import (
    DEFAULT_TRIALS,
    FIGURE_IDS,
    SweepAxis,
    expand_sweep,
    figure_preset,
    result_row,
    run_experiment,
)
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for an interrupted command


def _env_seed() -> int | None:
    raw = os.environ.get("BEAMSIM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"BEAMSIM_SEED must be an integer, got {raw!r}") from exc


def _load_config(path):
    """Parse a config file and apply the BEAMSIM_SEED override."""
    config = parse_config(path)
    seed = _env_seed()
    return config if seed is None else replace(config, master_seed=seed)


def _run_points(configs, workers: int, out_path: str | None) -> None:
    """Run each point, reporting its time on stderr.  A file target is
    rewritten after every point, so an interrupted run keeps the rows it
    finished; stdout gets the whole CSV once, at the end."""
    to_file = out_path is not None and out_path != "-"
    rows = []
    for config in configs:
        print(f"running {config.name} ({config.trials} trials)", file=sys.stderr)
        start = time.perf_counter()
        result = run_experiment(config, workers=workers)
        elapsed = time.perf_counter() - start
        rows.append(result_row(config, result.summary))
        if to_file:
            write_csv(rows, out_path)
        # after the write, so a point reported finished is on disk
        print(
            f"finished {config.name} in {elapsed:.2f} s ({config.trials / elapsed:.1f} trials/s,"
            f" {result.summary.excluded_count} excluded)",
            file=sys.stderr,
        )
    if not to_file:
        write_csv(rows, sys.stdout)


def _cmd_run(args) -> int:
    _run_points(expand_sweep(_load_config(args.config)), args.workers, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        values = number_list(args.values)
    except ValueError as exc:
        raise ConfigError(f"bad --values list {args.values!r} ({exc})") from exc
    config = replace(config, sweep=SweepAxis(param=args.param, values=values))
    _run_points(expand_sweep(config), args.workers, args.out)
    return EXIT_OK


def _cmd_figure(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    kwargs = {"trials": args.trials}
    if seed is not None:
        kwargs["master_seed"] = seed
    presets = {fig_id: figure_preset(fig_id, **kwargs) for fig_id in args.ids}
    os.makedirs(args.out, exist_ok=True)
    for fig_id, configs in presets.items():
        out_path = os.path.join(args.out, f"{fig_id}.csv")
        _run_points(configs, args.workers, out_path)
        print(f"wrote {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = run_validation(strict=args.strict)
    for res in results:
        print(res.line())
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config (sweep section honored)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="CSV path; '-' or omitted for stdout")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run built-in figure presets, one CSV each")
    p_fig.add_argument("ids", nargs="+", choices=FIGURE_IDS, metavar="id")
    p_fig.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--workers", type=int, default=1)
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", help="run the invariant self-check suite")
    p_val.add_argument("--strict", action="store_true", help="include large-array checks")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
