"""Baseline rating methods: static rank centrality, Elo, and maximum
likelihood under the pairwise preference model (pooled and kernel-weighted).

The MM solver follows Hunter's minorization-maximization scheme for the
Bradley-Terry likelihood: each sweep sets

    p_i <- W_i / sum_{j != i} N_ij / (p_i + p_j)

then renormalizes, which never decreases the (weighted) log-likelihood
(Hunter 2004).  A sweep runs over the observed pairs r < c: q = N_rc /
(p_r + p_c), and item i's denominator sums q over its pairs.  Every
iterate's likelihood, from the p_r + p_c the next sweep reuses, is checked
for ascent.  The kernel-weighted variant replaces counts by per-pair
normalized win shares at the evaluation time, so each observed pair
carries unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ComparisonDataset, aggregate_connectivity, check_strong_connectivity
from .errors import ConnectivityError, ConvergenceError, EstimationError
from .estimator import (
    ScoreVector,
    default_teleport,
    pair_fractions,
    regularize,
    stationary,
    transition_from_fractions,
)
from .kernels import Kernel

_ASCENT_SLACK = 1e-8


@dataclass(frozen=True)
class EloConfig:
    k_factor: float = 20.0
    initial_rating: float = 1500.0
    logistic_scale: float = 400.0


@dataclass(frozen=True)
class MMConfig:
    tol: float = 1e-10
    max_iter: int = 10_000


@dataclass
class MMInfo:
    iterations: int
    final_change: float
    loglik: list[float] = field(default_factory=list)


@dataclass
class EloTable:
    """Rating trajectory: one row per (game, participant) after the game."""

    times: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    final: np.ndarray
    item_labels: tuple[str, ...]
    config: EloConfig

    def ratings_before(self, t: float) -> np.ndarray:
        """Each item's last rating from games strictly before time t."""
        out = np.full(len(self.item_labels), self.config.initial_rating)
        for k in np.flatnonzero(self.times < t):
            out[self.items[k]] = self.ratings[k]
        return out

    def export_csv(self, path: str) -> None:
        from .util import float_token, write_csv

        write_csv(
            path,
            ("time", "item", "rating"),
            (
                (float_token(t), self.item_labels[i], float_token(r))
                for t, i, r in zip(self.times, self.items, self.ratings)
            ),
        )


def elo_expected(r_a: float, r_b: float, scale: float = 400.0) -> float:
    """Expected score of the first player against the second."""
    return 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / scale))


def elo_update(ratings: np.ndarray, i: int, j: int, y: int, config: EloConfig) -> None:
    """Apply one game between i and j (y = 1 when j won) to ``ratings`` in place."""
    e_j = elo_expected(ratings[j], ratings[i], config.logistic_scale)
    ratings[j] += config.k_factor * (y - e_j)
    ratings[i] += config.k_factor * ((1 - y) - (1.0 - e_j))


def elo_fit(dataset: ComparisonDataset, config: EloConfig = EloConfig()) -> EloTable:
    """Sequential Elo over the records in time order.

    Ties in time are processed in canonical (item_i, item_j) order, so the
    trajectory is deterministic for a given dataset.
    """
    tt, ii, jj, yy = dataset.in_time_order()
    ratings = np.full(dataset.n, config.initial_rating)
    hist_t = np.empty(2 * tt.size)
    hist_item = np.empty(2 * tt.size, dtype=np.int64)
    hist_r = np.empty(2 * tt.size)
    for k in range(tt.size):
        i, j = int(ii[k]), int(jj[k])
        elo_update(ratings, i, j, int(yy[k]), config)
        hist_t[2 * k] = hist_t[2 * k + 1] = tt[k]
        hist_item[2 * k], hist_item[2 * k + 1] = i, j
        hist_r[2 * k], hist_r[2 * k + 1] = ratings[i], ratings[j]
    return EloTable(
        times=hist_t,
        items=hist_item,
        ratings=hist_r,
        final=ratings,
        item_labels=dataset.item_labels,
        config=config,
    )


# -- MM core ---------------------------------------------------------------


def _win_matrix(n: int, idx_i, idx_j, won, lost) -> np.ndarray:
    """``win[a, b]``, the win mass of a over b, from each pair's item_j mass
    over item_i (``won``) and item_i mass over item_j (``lost``)."""
    win = np.zeros((n, n))
    win[idx_j, idx_i] = won
    win[idx_i, idx_j] = lost
    return win


def _pair_log_likelihood(w_pos, p_pos, n_pairs, psum) -> float:
    """Weighted preference log-likelihood from the items with wins and the
    observed pairs (count, p_r + p_c), with the 0 log 0 = 0 convention."""
    return float(w_pos @ np.log(p_pos) - n_pairs @ np.log(psum))


def _mm_solve(
    win: np.ndarray, config: MMConfig, init: np.ndarray | None
) -> tuple[np.ndarray, MMInfo]:
    """Iterate Hunter's update to a fixed point on the simplex.

    ``win[a, b]`` is the (possibly fractional) win mass of a over b.  Items
    with zero total wins are pinned at score zero, which is where the
    likelihood pushes them anyway.
    """
    n = win.shape[0]
    W = win.sum(axis=1)
    pos = W > 0
    w_pos = W[pos]
    r, c = np.nonzero(np.triu(win + win.T, 1))
    Nv = win[r, c] + win[c, r]
    if init is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(init, dtype=float).copy()
        if p.shape != (n,) or np.min(p) < 0 or p.sum() <= 0:
            raise ValueError("init must be a nonnegative vector with positive sum")
        p = p / p.sum()
    info = MMInfo(iterations=0, final_change=np.inf)
    prev_ll = -np.inf
    psum = p[r] + p[c]
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(config.max_iter):
            # a pair with p_r + p_c = 0 (zeros in init) adds nothing
            q = np.where(psum > 0, Nv / psum, 0.0)
            denom = np.bincount(r, q, n) + np.bincount(c, q, n)
            new = np.where(pos & (denom > 0), W / denom, 0.0)
            s = new.sum()
            if s <= 0:
                raise ConvergenceError("MM update collapsed to the zero vector")
            new /= s
            change = float(np.max(np.abs(new - p)))
            p = new
            psum = p[r] + p[c]
            ll = _pair_log_likelihood(w_pos, p[pos], Nv, psum)
            info.loglik.append(ll)
            if ll < prev_ll - _ASCENT_SLACK * (1.0 + abs(ll)):
                raise RuntimeError(
                    f"MM iteration decreased the log-likelihood ({prev_ll} -> {ll})"
                )
            prev_ll = ll
            info.iterations = it + 1
            info.final_change = change
            if change <= config.tol:
                return p, info
    raise ConvergenceError(
        f"MM failed to reach tol {config.tol} in {config.max_iter} iterations "
        f"(last change {info.final_change:.3e})",
        residual=info.final_change,
    )


def _pooled_wins(dataset: ComparisonDataset):
    """(item_i, item_j, item_j's wins, item_i's wins) for every observed
    pair, from one segment sum over the pair-grouped outcome column."""
    starts, seg_i, seg_j = dataset.pair_segments()
    won = np.add.reduceat(dataset.outcomes, starts)
    return seg_i, seg_j, won, np.diff(starts, append=dataset.n_records) - won


def bt_mle_mm(
    dataset: ComparisonDataset,
    config: MMConfig = MMConfig(),
    *,
    strict: bool = True,
    init: np.ndarray | None = None,
    return_info: bool = False,
):
    """Pooled maximum-likelihood scores (all comparisons weighted equally).

    ``strict`` enforces strong connectivity of the pooled win graph, the
    condition for the maximizer to exist in the simplex interior; with
    ``strict=False`` items the data cannot support are pinned at zero.
    """
    if strict:
        report = aggregate_connectivity(dataset)
        if not report.strongly_connected:
            raise ConnectivityError(
                "pooled win graph is not strongly connected "
                f"({report.n_components} components); the MLE does not exist"
            )
    p, info = _mm_solve(_win_matrix(dataset.n, *_pooled_wins(dataset)), config, init)
    sv = ScoreVector(p, t=None)
    return (sv, info) if return_info else sv


def wmle(
    dataset: ComparisonDataset,
    t: float,
    h: float,
    kernel: Kernel,
    config: MMConfig = MMConfig(),
    *,
    strict: bool = True,
    init: np.ndarray | None = None,
    return_info: bool = False,
):
    """Kernel-weighted maximum-likelihood scores at evaluation time t.

    Each pair observed at (t, h) contributes unit mass split into weighted
    win shares S_ij = sum_k y_ij(t_k) K_h(t, t_k) / sum_k K_h(t, t_k).
    Maximizing sum S_ij log(p_j / (p_i + p_j)) is then a weighted version
    of the pooled likelihood.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if strict:
        report = check_strong_connectivity(dataset, t, h, kernel)
        if not report.strongly_connected:
            raise ConnectivityError(
                "kernel-weighted win graph is not strongly connected at "
                f"t={t}, h={h} ({report.n_components} components)"
            )
    idx_i, idx_j, frac = pair_fractions(dataset, t, h, kernel)
    win = _win_matrix(dataset.n, idx_i, idx_j, frac, 1.0 - frac)
    p, info = _mm_solve(win, config, init)
    sv = ScoreVector(p, t=t)
    return (sv, info) if return_info else sv


# -- static rank centrality ------------------------------------------------


def static_rank_centrality(
    dataset: ComparisonDataset,
    sigma_n: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> ScoreVector:
    """Stationary scores of the pooled comparison chain (no smoothing).

    Off-diagonal entries are (1/n) times the pooled win fraction, exactly
    the kernel estimator's limit under a flat kernel wide enough to cover
    the whole observation window.
    """
    n = dataset.n
    sigma = default_teleport(n) if sigma_n is None else sigma_n
    if sigma == 0.0:
        report = aggregate_connectivity(dataset)
        if not report.strongly_connected:
            raise ConnectivityError(
                "pooled win graph is not strongly connected and sigma_n=0 "
                f"({report.n_components} components)"
            )
    if dataset.n_records == 0:
        raise EstimationError("cannot rank an empty dataset")
    seg_i, seg_j, won, lost = _pooled_wins(dataset)
    P = transition_from_fractions(n, seg_i, seg_j, won / (won + lost))
    sv = stationary(regularize(P, sigma), tol=tol, max_iter=max_iter)
    return ScoreVector(sv.scores, t=None)
