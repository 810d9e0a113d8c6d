"""Smoothing kernels used to weight comparisons by temporal distance.

Each kernel is a symmetric density K on the real line.  Observations at
time ``t_k`` enter an estimate at time ``t`` with weight ``K((t - t_k) / h)``
for a bandwidth ``h > 0``.  The exact moments ``int v^2 K(v) dv`` and
``int K(v)^2 dv`` are stored on the kernel because the asymptotic bias and
variance formulas need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Weights below this are indistinguishable from zero at double precision
# and are clamped so that far-away observations drop out exactly.
WEIGHT_FLOOR = 1e-300


def _gaussian_profile(u: np.ndarray) -> np.ndarray:
    # exp(-0.5 * u * u) / sqrt(2 pi), in place for arrays; scaling the rounded
    # u * u by -0.5 is exact wherever exp could show it, so weights are equal.
    u *= u
    u *= -0.5
    u = np.exp(u, out=u) if isinstance(u, np.ndarray) else np.exp(u)
    u /= math.sqrt(2.0 * math.pi)
    return u


def _epanechnikov_profile(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _boxcar_profile(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


# Each profile maps a float array it may overwrite, or a float scalar, to K(u).
_PROFILES = {
    "gaussian": _gaussian_profile,
    "epanechnikov": _epanechnikov_profile,
    "boxcar": _boxcar_profile,
}


@dataclass(frozen=True)
class Kernel:
    """A named kernel together with the moments used by inference.

    Attributes:
        family: one of "gaussian", "epanechnikov", "boxcar".
        second_moment: int v^2 K(v) dv.
        squared_integral: int K(v)^2 dv.
    """

    family: str
    second_moment: float
    squared_integral: float

    def evaluate(self, u):
        """K(u), vectorized; scalar in, scalar out."""
        return self._clamped(np.array(u, dtype=float)[()])  # a 0-d array -> scalar

    def weight(self, t: float, t_k, h: float):
        """K((t - t_k) / h) for one or many observation times ``t_k``."""
        if not h > 0:
            raise ValueError(f"bandwidth must be positive, got {h}")
        u = t - np.asarray(t_k, dtype=float)  # a new array, or a scalar
        u /= h
        return self._clamped(u)

    def _clamped(self, u: np.ndarray):
        """K(u), weights below WEIGHT_FLOOR set to 0; may overwrite u."""
        values = _PROFILES[self.family](u)
        low = values < WEIGHT_FLOOR
        if low.any():
            values = np.where(low, 0.0, values)
        return float(values) if values.ndim == 0 else values


GAUSSIAN = Kernel("gaussian", 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
EPANECHNIKOV = Kernel("epanechnikov", 0.2, 0.6)
BOXCAR = Kernel("boxcar", 1.0 / 3.0, 0.5)

_BY_NAME = {k.family: k for k in (GAUSSIAN, EPANECHNIKOV, BOXCAR)}


def kernel_by_name(name: str) -> Kernel:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
