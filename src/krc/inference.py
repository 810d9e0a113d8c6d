"""Asymptotic precision, bias, and confidence intervals for scores.

The estimated score vector is asymptotically normal coordinate-wise with a
diagonal covariance.  For item i the precision (inverse standard
deviation) is

    alpha_i = sqrt( (sum_{j != i} y*_ij)^2
                    / sum_{j != i} (1 / (M_ij h)) (pi_i + pi_j)^2
                      y*_ij (1 - y*_ij) int K^2 )

with y*_ij = pi_j / (pi_i + pi_j), and the smoothing bias is

    beta_i = sum_{k < l} (A#_{l,i} - A#_{k,i}) ((pi_k + pi_l) / n)
             d2/dt2 y*_kl(t)  int v^2 K.

In practice the plug-in alpha uses the estimated scores and raw pair
counts, and the bias term is ignored by under-smoothing (small h);
:func:`oracle_beta` computes beta for simulations where the truth is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .data import ComparisonDataset
from .errors import InferenceError
from .estimator import (
    ScoreVector,
    TransitionMatrix,
    _pair_sums,
    build_ideal_transition,
    stationary,
)
from .kernels import Kernel
from .online import GroupInverse, group_inverse

# -- normal quantile -------------------------------------------------------


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    return float(ndtri(p))


# -- parameter containers --------------------------------------------------


@dataclass
class AsymptoticParams:
    """Per-item precision (alpha)."""

    alpha: np.ndarray


@dataclass(frozen=True)
class IntervalEstimate:
    point: float
    lower: float
    upper: float
    level: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class DiagonalApproxGroupInverse:
    """Diagonal surrogate for A#: entry i is 1 / sum_{j!=i} (1/n) y*_ij."""

    diag: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.diag)


@dataclass
class ExpansionReport:
    e_norm: float
    ea_norm: float
    condition_holds: bool
    first_order_residual: float
    second_order_norm: float
    identity_gap: float


# -- alpha / beta ----------------------------------------------------------


def _win_prob_matrix(scores: np.ndarray) -> np.ndarray:
    """Y[..., i, j] = probability j is preferred over i, for each score
    vector of ``scores`` (..., n); zero diagonal."""
    Y = scores[..., None, :] / (scores[..., :, None] + scores[..., None, :])
    idx = np.arange(scores.shape[-1])
    Y[..., idx, idx] = 0.0
    return Y


def plug_in_alpha(
    pi_hat: ScoreVector,
    dataset: ComparisonDataset,
    t: float,
    h: float,
    kernel: Kernel,
    *,
    effective_counts: bool = False,
) -> AsymptoticParams:
    """Per-item precision with scores plugged in for the truth.

    Sums run over opponents the item has actually been compared with.  By
    default M_ij h uses the raw per-pair observation count; with
    ``effective_counts`` the realized kernel mass sum_k K_h(t, t_k)
    replaces it, which is the same quantity up to the local density of
    observation times.  Items with no observed opponents, or whose variance
    sum is 0 (each opponent's win probability rounds to 0 or 1), have
    undefined precision and trigger an InferenceError naming them.  This is
    the one-row case of :func:`_alpha_stack`.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    scores = pi_hat.scores
    n = dataset.n
    if scores.shape != (n,):
        raise ValueError("score vector length does not match dataset")
    starts, seg_i, seg_j = dataset.pair_segments()
    if effective_counts:  # the per-pair kernel mass that the fits read
        _, mass, _, _ = next(_pair_sums(dataset, [t], h, kernel))
    else:
        mass = np.diff(starts, append=dataset.n_records)[None] * h
    alpha, (err,) = _alpha_stack(
        scores[None], mass, seg_i, seg_j, kernel, dataset.item_labels
    )
    if err is not None:
        raise err
    return AsymptoticParams(alpha[0])


def _alpha_stack(
    scores: np.ndarray, mass: np.ndarray, idx_i, idx_j, kernel: Kernel, labels
) -> tuple[np.ndarray, list]:
    """Plug-in precision of each row of the (k, n) ``scores`` from its row of
    the (k, pairs) kernel ``mass`` over the pairs (idx_i, idx_j): (alpha,
    errors), alpha (k, n) and, per row, None or its error: ValueError for a
    score that is not positive, else the InferenceError that names, by
    ``labels``, the items without an observed opponent or else those with an
    undefined precision.  A pair without mass is not observed.  Every
    reduction runs along a row's own axes, so no row's result depends on the
    others.
    """
    k, n = scores.shape
    weight_inv = np.zeros((k, n, n))
    weight_inv[:, idx_i, idx_j] = weight_inv[:, idx_j, idx_i] = np.divide(
        1.0, mass, out=np.zeros_like(mass), where=mass > 0
    )
    observed = weight_inv > 0
    positive = scores.min(axis=1) > 0
    scores = np.where(positive[:, None], scores, 1.0)  # a failing row's stand-in
    Y = _win_prob_matrix(scores)
    S1 = np.where(observed, Y, 0.0).sum(axis=-1)
    # terms = weight_inv * (pi_i + pi_j)^2 * Y * (1 - Y) * int K^2, left to
    # right, in place; weight_inv is 0 on unobserved pairs, so their terms vanish.
    pair_sum = scores[:, :, None] + scores[:, None, :]
    terms = weight_inv
    terms *= np.square(pair_sum, out=pair_sum)
    terms *= Y
    terms *= np.subtract(1.0, Y, out=Y)
    terms *= kernel.squared_integral
    D = terms.sum(axis=-1)
    alpha = np.divide(S1, np.sqrt(D), out=np.zeros((k, n)), where=D > 0)
    errors = []
    for ok, seen, a in zip(positive, observed.any(axis=-1), alpha):
        if not ok:
            errors.append(ValueError("scores must be strictly positive"))
            continue
        bad, what = (~seen, "no observed opponents") if not seen.all() else (
            ~(np.isfinite(a) & (a > 0)), "undefined precision"
        )
        names = ", ".join(labels[i] for i in np.flatnonzero(bad))
        errors.append(InferenceError(f"{what} for item(s): {names}") if names else None)
    return alpha, errors


def oracle_beta(
    truth_curve: Callable[[float], ScoreVector],
    t: float,
    h: float,
    kernel: Kernel,
    fd_step: float = 1e-3,
) -> np.ndarray:
    """Smoothing-bias vector from a known (simplex-normalized) truth curve.

    The second time derivative of each pairwise win probability is taken by
    central differences with step ``fd_step``, so t must sit at least one
    step inside [0, 1].  A constant truth gives exactly zero bias.
    """
    if t - fd_step < 0.0 or t + fd_step > 1.0:
        raise ValueError(f"t={t} within {fd_step} of the domain boundary (0.0, 1.0)")

    def scores_at(s: float) -> np.ndarray:
        sv = truth_curve(s)
        return sv.scores if isinstance(sv, ScoreVector) else np.asarray(sv, float)

    pi_t = scores_at(t)
    n = pi_t.shape[0]
    P_star = build_ideal_transition(pi_t)
    Ainv_star = group_inverse(P_star, ScoreVector(pi_t, t=t))
    Y_mid = _win_prob_matrix(pi_t)
    Y_hi = _win_prob_matrix(scores_at(t + fd_step))
    Y_lo = _win_prob_matrix(scores_at(t - fd_step))
    ydd = (Y_hi - 2.0 * Y_mid + Y_lo) / (fd_step * fd_step)
    C = ((pi_t[:, None] + pi_t[None, :]) / n) * ydd * kernel.second_moment
    np.fill_diagonal(C, 0.0)
    # Summing (A#_{l,i} - A#_{k,i}) C_kl over k < l collapses, via the
    # antisymmetry of ydd, to a weighted column sum of A#.
    w = C.sum(axis=0)
    return w @ Ainv_star.entries


# -- diagonal approximation ------------------------------------------------


def diagonal_group_inverse_approx(pi_hat: ScoreVector) -> DiagonalApproxGroupInverse:
    """Diagonal stand-in for the group inverse, O(n^2) to form.

    A_ii = sum_{j != i} (1/n) y*_ij is the exit rate of state i; its
    reciprocal approximates the dominant (diagonal) part of A#, with the
    off-diagonal part smaller by a factor of order 1/sqrt(n) per column.
    """
    scores = pi_hat.scores
    if np.min(scores) <= 0:
        raise ValueError("scores must be strictly positive")
    n = scores.shape[0]
    exit_rate = _win_prob_matrix(scores).sum(axis=1) / n
    return DiagonalApproxGroupInverse(1.0 / exit_rate)


def diagonal_approx_error(
    approx: DiagonalApproxGroupInverse, Ainv: GroupInverse
) -> float:
    """max_i || Atilde[:, i] - A#[:, i] ||_2."""
    diff = approx.as_matrix() - Ainv.entries
    return float(np.max(np.linalg.norm(diff, axis=0)))


# -- confidence intervals --------------------------------------------------


def score_ci(
    pi_hat: ScoreVector, params: AsymptoticParams, item: int, level: float = 0.95
) -> IntervalEstimate:
    """Two-sided interval pi_hat_i +/- z / alpha_i (bias ignored)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    point = float(pi_hat.scores[item])
    z = normal_quantile(0.5 * (1.0 + level))
    half = z / float(params.alpha[item])
    return IntervalEstimate(point, point - half, point + half, level)


def pairwise_win_ci(
    pi_hat: ScoreVector,
    params: AsymptoticParams,
    i: int,
    j: int,
    level: float = 0.95,
) -> IntervalEstimate:
    """Delta-method interval for the probability that j beats i.

    The gradient of s_j / (s_i + s_j) is (-p/(s_i+s_j), (1-p)/(s_i+s_j))
    scaled; coordinates are asymptotically independent so the variance is
    the weighted sum of squared gradient entries.  Bounds are clipped to
    [0, 1].
    """
    if i == j:
        raise ValueError("pairwise interval needs two distinct items")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    s = pi_hat.scores
    total = float(s[i] + s[j])
    point = float(s[j]) / total
    g_i = -float(s[j]) / total**2
    g_j = float(s[i]) / total**2
    var = (g_i / float(params.alpha[i])) ** 2 + (g_j / float(params.alpha[j])) ** 2
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * math.sqrt(var)
    return IntervalEstimate(
        point, max(0.0, point - half), min(1.0, point + half), level
    )


# -- expansion diagnostic --------------------------------------------------


def expansion_diagnostic(
    P_hat: TransitionMatrix,
    P_star: TransitionMatrix,
    Ainv_star: GroupInverse,
    pi_hat: ScoreVector | None = None,
    pi_star: ScoreVector | None = None,
) -> ExpansionReport:
    """Check the perturbation expansion of the stationary vector.

    With E = P_hat - P_star, the expansion pi_hat' - pi' = pi' E A# +
    pi_hat' E A# E A# is an exact identity whenever ||E A#|| < 1; the
    report carries the norms, whether the condition holds, the first-order
    truncation residual, and the gap of the full identity (rounding-level
    when both stationary vectors are accurate).
    """
    E = P_hat.entries - P_star.entries
    EA = E @ Ainv_star.entries
    ea_norm = float(np.linalg.norm(EA, 2))
    if pi_star is None:
        pi_star = stationary(P_star, tol=1e-12)
    if pi_hat is None:
        pi_hat = stationary(P_hat, tol=1e-12)
    p = pi_star.scores
    q = pi_hat.scores
    first_order = p @ EA
    second_order = (q @ EA) @ EA
    return ExpansionReport(
        e_norm=float(np.linalg.norm(E, 2)),
        ea_norm=ea_norm,
        condition_holds=bool(ea_norm < 1.0),
        first_order_residual=float(np.max(np.abs(q - p - first_order))),
        second_order_norm=float(np.max(np.abs(second_order))),
        identity_gap=float(np.max(np.abs(q - p - first_order - second_order))),
    )
