"""Small shared helpers: CSV writing and float formatting."""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def float_token(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def format_float_array(values: np.ndarray) -> list[str]:
    return [float_token(v) for v in np.asarray(values, dtype=float)]
