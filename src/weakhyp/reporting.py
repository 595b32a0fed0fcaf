"""Deterministic CSV/JSON writers shared by the CLI scenarios."""

from __future__ import annotations

import csv
import json
import os
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["format_float", "write_csv", "write_json"]

#: 17 significant digits round-trip doubles exactly
FLOAT_FORMAT = "%.17g"


def format_float(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, Fraction)):
        return FLOAT_FORMAT % x
    return str(x)


def write_csv(path: str, rows: Iterable[dict], fieldnames: Sequence[str]) -> None:
    """Fixed column order and float format, for byte-identical reruns."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_float(row[name]) for name in fieldnames])


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
