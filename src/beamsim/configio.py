"""Experiment config files (INI sections) and the results CSV writer.

Config files mirror the ExperimentConfig fields: an [experiment] section
for the scalars plus [channel], [scheme] and an optional [sweep] section.
Unknown sections or keys are errors, as are malformed numbers, and every
diagnostic names the offending field.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import math
import os
from pathlib import Path

from .channel import ChannelModel
from .errors import ConfigError
from .experiments import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ExperimentConfig,
    Scheme,
    SweepAxis,
)


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def number_list(raw: str) -> tuple[float, ...]:
    """A comma-separated list of numbers, as ``[sweep] values`` takes it."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_REQUIRED = object()

# section -> (key, converter, default or _REQUIRED) for each key, in file
# order; keys are named as the fields of the object the section describes
_SECTIONS = {
    "experiment": (
        ("name", str, _REQUIRED),
        ("k", int, _REQUIRED),
        ("m", int, _REQUIRED),
        ("rho_db", _number, _REQUIRED),
        ("trials", int, DEFAULT_TRIALS),
        ("master_seed", int, DEFAULT_SEED),
    ),
    "channel": (
        ("kind", str, _REQUIRED),
        ("n_t", int, _REQUIRED),
        ("n_r", int, _REQUIRED),
        ("l_paths", int, None),
        ("spacing_over_wavelength", _number, 0.5),
    ),
    "scheme": (("kind", str, _REQUIRED), ("bits", int, None), ("beta_percent", _number, None)),
    "sweep": (("param", str, _REQUIRED), ("values", number_list, _REQUIRED)),
}


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    sections = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown config section [{name}]")
        items = dict(parser.items(name))
        known = {key for key, _, _ in _SECTIONS[name]}
        for key in items:
            if key not in known:
                raise ConfigError(f"unknown config key {name}.{key}")
        sections[name] = items
    for required in ("experiment", "channel", "scheme"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    return sections


def _fields(name: str, items: dict[str, str]) -> dict:
    """Convert one section's values by its _SECTIONS row."""
    out = {}
    for key, convert, default in _SECTIONS[name]:
        raw = items.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {name}.{key}")
            out[key] = default
            continue
        try:
            out[key] = convert(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}.{key}: {raw!r} ({exc})") from exc
    return out


def parse_config_text(text: str) -> ExperimentConfig:
    sections = _read_sections(text)
    try:
        channel = ChannelModel(**_fields("channel", sections["channel"]))
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc
    try:
        scheme = Scheme(**_fields("scheme", sections["scheme"]))
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc
    sweep = SweepAxis(**_fields("sweep", sections["sweep"])) if "sweep" in sections else None
    return ExperimentConfig(
        **_fields("experiment", sections["experiment"]),
        channel=channel,
        scheme=scheme,
        sweep=sweep,
    )


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not a text file: {exc}") from exc
    return parse_config_text(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config_text for configs without expansion annotations."""
    described = {
        "experiment": config,
        "channel": config.channel,
        "scheme": config.scheme,
        "sweep": config.sweep,
    }
    blocks = []
    for name, keys in _SECTIONS.items():
        if described[name] is None:
            continue
        lines = [f"[{name}]"]
        for key, _, _ in keys:
            value = getattr(described[name], key)
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
            if value is not None:
                lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


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
