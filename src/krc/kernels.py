"""Smoothing kernels used to weight comparisons by temporal distance.

Each kernel is a symmetric density K on the real line.  Observations at
time ``t_k`` enter an estimate at time ``t`` with weight ``K((t - t_k) / h)``
for a bandwidth ``h > 0``.  The exact moments ``int v^2 K(v) dv`` and
``int K(v)^2 dv`` are stored on the kernel because the asymptotic bias and
variance formulas need them.

Weights are computed in place, in a caller's buffer if given; the Gaussian's
normalizer sits in its exponent, and its floor passes are skipped where the
times' ranges show no weight can fall below WEIGHT_FLOOR.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Weights below this are indistinguishable from zero at double precision
# and are clamped so that far-away observations drop out exactly.
WEIGHT_FLOOR = 1e-300

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# The Gaussian's floor point, where its weight is WEIGHT_FLOOR, less a margin
# far wider than the rounding of exp's argument.
_FLOOR_U = math.sqrt(-2.0 * (math.log(WEIGHT_FLOOR) + _LOG_SQRT_2PI)) - 1e-6
# An exponent between log(WEIGHT_FLOOR), about -690.8, and the log of the
# smallest normal double, about -708.4: exp of it is floored, and not subnormal.
_EXP_CLAMP = -700.0


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

    def weight(
        self, t, t_k, h: float, out: np.ndarray | None = None, t_k_span=None,
    ):
        """K((t - t_k) / h) for one or many observation times ``t_k``: a float
        for one pair, else an array of the broadcast shape, written into the
        float64 array ``out`` when it is given.  The Gaussian takes four passes
        and a shift, exp(d * d * -1/(2 h^2) - log sqrt(2 pi)) of d = t - t_k.
        Two more passes clamp the exponent above the subnormal range and clear
        the weights below WEIGHT_FLOOR; they are skipped when the ranges of t
        and t_k put every |d| / h below the floor point
        sqrt(-2 log(WEIGHT_FLOOR sqrt(2 pi))), about 37.14.  ``t_k_span``, the
        (min, max) of the array ``t_k`` when the caller has it, spares that
        scan of ``t_k``; a wrong span gives wrong weights."""
        if not h > 0:
            raise ValueError(f"bandwidth must be positive, got {h}")
        scale = max(-0.5 / (h * h), -sys.float_info.max)  # K(0) is not 0 * inf
        if isinstance(t, float) and isinstance(t_k, float):  # no array at all
            d = t - t_k
            if self.family == "gaussian":
                w = float(np.exp(d * d * scale - _LOG_SQRT_2PI))
                return w if w >= WEIGHT_FLOOR else 0.0
            u = abs(d / h)
            w = 0.75 * (1.0 - u * u) if self.family == "epanechnikov" else 0.5
            return w if u <= 1.0 else 0.0
        d = np.subtract(t, t_k, out=out, dtype=float)
        if not isinstance(d, np.ndarray):  # a pair of other scalar types
            return self.weight(float(d), 0.0, h)
        if self.family != "gaussian":  # weights 0 or above 0.75 * 2^-53: no floor
            d /= h
            inside = np.abs(d) <= 1.0
            if self.family == "boxcar":
                d.fill(0.5)
            else:
                d *= d
                np.subtract(1.0, d, out=d)
                d *= 0.75
            np.copyto(d, 0.0, where=~inside)
            return d
        d *= d
        d *= scale
        d -= _LOG_SQRT_2PI
        reach = 0.0
        if d.size:
            lo, hi = (np.min(t_k), np.max(t_k)) if t_k_span is None else t_k_span
            reach = max(np.max(t) - lo, hi - np.min(t))
        if reach < _FLOOR_U * h:  # every weight is above WEIGHT_FLOOR
            return np.exp(d, out=d)
        # exp is slow on arguments whose result is subnormal; any argument
        # below _EXP_CLAMP gives a weight below WEIGHT_FLOOR, cleared anyway.
        np.maximum(d, _EXP_CLAMP, out=d)
        w = np.exp(d, out=d)
        np.copyto(w, 0.0, where=w < WEIGHT_FLOOR)
        return w


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
