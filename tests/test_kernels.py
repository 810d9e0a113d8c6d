"""Kernel profiles, stored moments, and weight evaluation."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from krc.kernels import (
    BOXCAR,
    EPANECHNIKOV,
    GAUSSIAN,
    WEIGHT_FLOOR,
    Kernel,
    kernel_by_name,
)

ALL_KERNELS = [GAUSSIAN, EPANECHNIKOV, BOXCAR]


def test_gaussian_peak_value():
    # 1 / sqrt(2 pi)
    assert GAUSSIAN.weight(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-16)


def test_epanechnikov_peak_and_support():
    assert EPANECHNIKOV.weight(0.0, 0.0, 1.0) == 0.75
    assert EPANECHNIKOV.weight(1.0, 0.0, 1.0) == 0.0
    assert EPANECHNIKOV.weight(-1.0, 0.0, 1.0) == 0.0
    assert EPANECHNIKOV.weight(1.0 + 1e-9, 0.0, 1.0) == 0.0
    assert EPANECHNIKOV.weight(0.999999, 0.0, 1.0) > 0.0


def test_boxcar_height_and_support():
    assert BOXCAR.weight(0.0, 0.0, 1.0) == 0.5
    assert BOXCAR.weight(0.999999, 0.0, 1.0) == 0.5
    assert BOXCAR.weight(-1.0, 0.0, 1.0) == 0.5
    assert BOXCAR.weight(1.0000001, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
def test_profiles_are_symmetric_densities(kernel):
    us = np.linspace(-3.0, 3.0, 121)
    vals = kernel.weight(us, 0.0, 1.0)
    flipped = kernel.weight(-us, 0.0, 1.0)
    assert np.array_equal(vals, flipped)
    assert np.all(vals >= 0.0)
    total, _ = quad(lambda u: kernel.weight(u, 0.0, 1.0), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
def test_stored_moments_match_quadrature(kernel):
    m2, _ = quad(lambda u: u * u * kernel.weight(u, 0.0, 1.0), -np.inf, np.inf)
    sq, _ = quad(lambda u: kernel.weight(u, 0.0, 1.0) ** 2, -np.inf, np.inf)
    assert kernel.second_moment == pytest.approx(m2, abs=1e-10)
    assert kernel.squared_integral == pytest.approx(sq, abs=1e-10)


def test_gaussian_squared_integral_closed_form():
    # int phi(u)^2 du = 1 / (2 sqrt(pi))
    assert GAUSSIAN.squared_integral == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-16
    )


def test_weight_is_scaled_kernel():
    # weight carries no 1/h factor; the estimator only ever uses ratios
    got = GAUSSIAN.weight(0.5, 0.5, 0.2)
    assert got == pytest.approx(0.3989422804014327, abs=1e-16)
    got = GAUSSIAN.weight(0.5, 0.3, 0.2)
    assert got == pytest.approx(GAUSSIAN.weight(1.0, 0.0, 1.0), abs=1e-16)


def test_weight_vectorized_matches_scalar():
    times = np.array([0.1, 0.4, 0.9])
    vec = EPANECHNIKOV.weight(0.5, times, 0.3)
    scal = [EPANECHNIKOV.weight(0.5, float(tk), 0.3) for tk in times]
    assert np.allclose(vec, scal, atol=0)
    assert isinstance(EPANECHNIKOV.weight(0.5, 0.4, 0.3), float)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.family)
def test_one_pair_weight_is_the_tile_weight_bitwise(kernel):
    # One pair of floats takes the tile's operations on Python floats; other
    # scalar types take that path too.  Times sit exactly on the support
    # edges (h is a power of two) and either side of the Gaussian's floor
    # point, |u| of about 37.14.
    h = 0.25
    edges = 0.5 + h * np.array([-37.3, -37.15, -37.13, -37.0, -1.0, 0.0, 1.0, 1 - 1e-15])
    times = np.concatenate([np.random.default_rng(5).uniform(-10.0, 11.0, 200), edges])
    out = np.full((1, times.size), np.nan)
    tile = kernel.weight(np.array([[0.5]]), times, h, out=out)
    assert tile is out
    ones = [kernel.weight(0.5, float(tk), h) for tk in times]
    assert all(type(w) is float for w in ones)
    assert np.array_equal(tile[0], ones)
    lone = kernel.weight(np.array(0.5), np.array(times[-4]), h)
    assert type(lone) is float and lone == ones[-4]
    assert kernel.weight(0, 0.0, 1.0) == kernel.weight(0.0, 0.0, 1.0) == kernel.weight(0.5, 0.5, h)


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV, BOXCAR])
def test_weights_with_the_callers_span_are_bitwise(kernel):
    # A caller that knows the times' (min, max) passes it; the weights are
    # those of the scan, bitwise, either side of the Gaussian's floor point.
    h = 0.25
    times = 0.5 + h * np.array([-37.3, -37.13, -1.0, 0.0, 0.5, 36.9, 37.2])
    t = np.array([[0.5], [0.6], [0.4 + 40 * h]])
    want = kernel.weight(t, times, h)
    got = kernel.weight(t, times, h, out=np.empty_like(want),
                        t_k_span=(times.min(), times.max()))
    assert np.array_equal(got, want)
    if kernel is GAUSSIAN:  # the span is what the floor test reads
        narrow = kernel.weight(t[:2], times, h, t_k_span=(0.5, 0.5))
        assert np.count_nonzero(narrow) > np.count_nonzero(want[:2])


def test_far_tail_clamps_to_exact_zero():
    # exp(-0.5 * 60^2) underflows past 1e-300 and must come back as 0.0
    assert GAUSSIAN.weight(60.0, 0.0, 1.0) == 0.0
    near = GAUSSIAN.weight(37.0, 0.0, 1.0)
    assert near == 0.0 or near >= WEIGHT_FLOOR


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        GAUSSIAN.weight(0.5, 0.4, 0.0)
    with pytest.raises(ValueError):
        GAUSSIAN.weight(0.5, 0.4, -1.0)


def test_kernel_by_name_roundtrip():
    for k in ALL_KERNELS:
        assert kernel_by_name(k.family) is k
    assert kernel_by_name("GAUSSIAN") is GAUSSIAN
    with pytest.raises(ValueError):
        kernel_by_name("triangular")


def test_kernel_is_frozen():
    with pytest.raises(Exception):
        GAUSSIAN.family = "other"


def test_custom_kernel_instance():
    k = Kernel("boxcar", 1.0 / 3.0, 0.5)
    assert k.weight(0.2, 0.0, 1.0) == 0.5


def test_gaussian_tile_clamps_its_exponent_above_the_subnormal_range(monkeypatch):
    # Records up to 60h from t: past the floor point, |u| of about 37.14,
    # and past |u| of about 37.65, where the exponent falls below -708.4,
    # the log of the smallest normal double, and exp turns slow.  The
    # weights are those of the formula floored at WEIGHT_FLOOR, bitwise.
    h = 0.01
    t = np.array([[0.5], [0.53]])
    times = 0.5 + h * np.linspace(-60.0, 60.0, 2401)
    arguments = []
    real_exp = np.exp

    def spy(x, *args, **kwargs):
        arguments.append(float(np.min(x)))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    got = GAUSSIAN.weight(t, times, h)
    monkeypatch.undo()
    assert arguments and min(arguments) >= math.log(sys.float_info.min)
    d = t - times
    want = np.exp(d * d * (-0.5 / (h * h)) - 0.5 * math.log(2.0 * math.pi))
    want[want < WEIGHT_FLOOR] = 0.0
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < got.size
