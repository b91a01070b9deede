#!/usr/bin/env python3
"""Print the code lines of each module of a package and their total.

    python3 scripts/code_lines.py [DIR]

A code line is one that is neither blank nor a ``#`` comment; docstring
lines count.  ``DIR`` (default ``src/beamsim``) is read one ``*.py`` file
deep, in name order, and each file gets a line ``<count> <name>``, then
``<total> total``.  Standard library only.
"""

from __future__ import annotations

import argparse
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "beamsim"


def code_lines(text: str) -> int:
    """The lines of ``text`` that are neither blank nor a ``#`` comment."""
    stripped = (line.strip() for line in text.splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path, default=SOURCE, help="package directory")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
