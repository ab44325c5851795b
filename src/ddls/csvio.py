"""Deterministic text export helpers.

All files the package writes go through these functions so that equal
inputs produce byte-identical output: floats are rendered with %.9g,
line endings are '\n', and writes to a path are atomic (temp file in
the same directory, then rename).
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np


_CELL = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d"}  # by dtype kind; text: %s


def render_columns(header, columns) -> str:
    """CSV text of equal-length columns, formatted in one pass: floats
    with %.9g, integers and booleans as integers, anything else as text."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join(_CELL.get(column.dtype.kind, "%s") for column in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(column.tolist() for column in columns))))
    rows = row * len(columns[0]) if columns else ""
    return ",".join(str(h) for h in header) + "\n" + rows % cells


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    atomic_write_text(path, render_columns(header, list(zip(*rows))))

