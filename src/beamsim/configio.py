"""Experiment config files (INI sections) and the results CSV contract.

Config files mirror the ExperimentConfig fields: an [experiment] section
for the scalars plus [channel], [scheme] and an optional [sweep] section.
Unknown sections or keys are errors, as are malformed numbers, and every
diagnostic names the offending field.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import math
import os
from pathlib import Path

from .channel import ChannelModel
from .errors import ConfigError
from .experiments import DEFAULT_SEED, DEFAULT_TRIALS, ExperimentConfig, Scheme, SweepAxis

CSV_COLUMNS = (
    "experiment",
    "sweep_param",
    "sweep_value",
    "scheme",
    "n_t",
    "n_r",
    "k",
    "m",
    "rho_db",
    "trials",
    "mean_rate",
    "std_err",
    "analytic_rate",
    "mean_gap",
    "inactive_fraction",
    "excluded",
)

_SECTION_KEYS = {
    "experiment": ("name", "k", "m", "rho_db", "trials", "master_seed"),
    "channel": ("kind", "n_t", "n_r", "l_paths", "spacing_over_wavelength"),
    "scheme": ("kind", "bits", "beta_percent"),
    "sweep": ("param", "values"),
}


class _Section:
    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def _convert(self, key: str, conv, required: bool, default):
        raw = self.items.get(key)
        if raw is None:
            if required:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return default
        try:
            return conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {self.name}.{key}: {raw!r} ({exc})") from exc

    def text(self, key: str, required: bool = True, default: str | None = None) -> str | None:
        return self._convert(key, str, required, default)

    def integer(self, key: str, required: bool = True, default: int | None = None) -> int | None:
        return self._convert(key, int, required, default)

    def number(self, key: str, required: bool = True, default: float | None = None) -> float | None:
        def to_float(raw: str) -> float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("must be finite")
            return value

        return self._convert(key, to_float, required, default)

    def number_list(self, key: str) -> tuple[float, ...]:
        def to_list(raw: str) -> tuple[float, ...]:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(float(p) for p in parts)

        return self._convert(key, to_list, True, None)


def _read_sections(text: str) -> dict[str, _Section]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        items = dict(parser.items(name))
        for key in items:
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"unknown config key {name}.{key}")
        sections[name] = _Section(name, items)
    for required in ("experiment", "channel", "scheme"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    return sections


def parse_config_text(text: str) -> ExperimentConfig:
    sections = _read_sections(text)
    exp = sections["experiment"]
    chan_sec = sections["channel"]
    scheme_sec = sections["scheme"]

    try:
        channel = ChannelModel(
            kind=chan_sec.text("kind"),
            n_t=chan_sec.integer("n_t"),
            n_r=chan_sec.integer("n_r"),
            l_paths=chan_sec.integer("l_paths", required=False),
            spacing_over_wavelength=chan_sec.number(
                "spacing_over_wavelength", required=False, default=0.5
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc

    try:
        scheme = Scheme(
            kind=scheme_sec.text("kind"),
            bits=scheme_sec.integer("bits", required=False),
            beta_percent=scheme_sec.number("beta_percent", required=False),
        )
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc

    sweep = None
    if "sweep" in sections:
        sweep = SweepAxis(
            param=sections["sweep"].text("param"),
            values=sections["sweep"].number_list("values"),
        )

    return ExperimentConfig(
        name=exp.text("name"),
        channel=channel,
        k=exp.integer("k"),
        m=exp.integer("m"),
        rho_db=exp.number("rho_db"),
        scheme=scheme,
        trials=exp.integer("trials", required=False, default=DEFAULT_TRIALS),
        master_seed=exp.integer("master_seed", required=False, default=DEFAULT_SEED),
        sweep=sweep,
    )


def parse_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config_text for configs without expansion annotations."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"name = {config.name}\n")
    out.write(f"k = {config.k}\n")
    out.write(f"m = {config.m}\n")
    out.write(f"rho_db = {config.rho_db!r}\n")
    out.write(f"trials = {config.trials}\n")
    out.write(f"master_seed = {config.master_seed}\n")
    out.write("\n[channel]\n")
    out.write(f"kind = {config.channel.kind}\n")
    out.write(f"n_t = {config.channel.n_t}\n")
    out.write(f"n_r = {config.channel.n_r}\n")
    if config.channel.l_paths is not None:
        out.write(f"l_paths = {config.channel.l_paths}\n")
    out.write(f"spacing_over_wavelength = {config.channel.spacing_over_wavelength!r}\n")
    out.write("\n[scheme]\n")
    out.write(f"kind = {config.scheme.kind}\n")
    param = config.scheme.spec.param
    if param is not None:
        out.write(f"{param} = {getattr(config.scheme, param)!r}\n")
    if config.sweep is not None:
        out.write("\n[sweep]\n")
        out.write(f"param = {config.sweep.param}\n")
        out.write(f"values = {', '.join(repr(v) for v in config.sweep.values)}\n")
    return out.getvalue()


def write_csv(rows, target) -> None:
    """Write result rows (dicts keyed by CSV_COLUMNS) to a path or text file.

    A path is replaced atomically: the rows go to a temporary file in the
    same directory, which is then renamed over ``target``.
    """
    rows = list(rows)
    for row in rows:
        extra = set(row) - set(CSV_COLUMNS)
        if extra:
            raise ValueError(f"row carries unknown columns {sorted(extra)}")

    def emit(handle) -> None:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})

    if hasattr(target, "write"):
        emit(target)
        return
    # write beside the target, then rename over it: a failure part-way
    # leaves any earlier file whole and no partial file behind
    tmp = f"{os.fspath(target)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            emit(handle)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
