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

The solver takes a stack of win matrices: the rows still iterating share
each sweep, and a row leaves when it converges or fails, with the result
it would have alone.  A single solve is its one-row case.  Many times'
fits (a weighted-MLE curve, or the walk-forward pooled MLE on the records
strictly before each day) come from one pass of per-pair sums and are
solved as such stacks, each from the uniform start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .data import ComparisonDataset, _component_report
from .errors import ConnectivityError, ConvergenceError
from .estimator import ScoreVector, _fits, _no_mass, _pair_sums
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
    """``win[..., a, b]``, the win mass of a over b, from each pair's item_j
    mass over item_i (``won``) and item_i mass over item_j (``lost``); a
    stack of (..., pairs) masses gives a stack of matrices."""
    win = np.zeros(np.shape(won)[:-1] + (n, n))
    win[..., idx_j, idx_i] = won
    win[..., idx_i, idx_j] = lost
    return win


def _pair_log_likelihood(W, p, pinned, Nv, psum, starts) -> np.ndarray:
    """Each row's weighted preference log-likelihood, from its items' win
    mass ``W`` and scores ``p`` (rows x n; ``pinned`` is 1 where W = 0 and
    0 elsewhere, so 0 log 0 counts 0) and its observed pairs' counts ``Nv``
    and p_r + p_c, grouped by row from ``starts``."""
    items = (W * np.log(p + pinned)).sum(axis=1)
    return items - np.add.reduceat(Nv * np.log(psum), starts)


def _observed_pairs(win: np.ndarray):
    """The observed pairs r < c of each matrix in the (k, n, n) stack
    ``win``, grouped by row: (row, row*n + r, row*n + c, win[r, c] +
    win[c, r]), the flat indices being into a (k x n) array."""
    n = win.shape[-1]
    slot, r, c = np.nonzero(np.triu(win + np.swapaxes(win, 1, 2), 1))
    base = slot * n
    return slot, base + r, base + c, win[slot, r, c] + win[slot, c, r]


def _mm_solve(
    win: np.ndarray, config: MMConfig, init: np.ndarray | None
) -> tuple[np.ndarray, MMInfo]:
    """Iterate Hunter's update to a fixed point on the simplex.

    ``win[a, b]`` is the (possibly fractional) win mass of a over b.  Items
    with zero total wins are pinned at score zero, which is where the
    likelihood pushes them anyway.  This is the one-row case of
    :func:`_mm_stack`, started from ``init`` when given.
    """
    n = win.shape[0]
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (n,) or np.min(init) < 0 or init.sum() <= 0:
            raise ValueError("init must be a nonnegative vector with positive sum")
        init = (init / init.sum())[None]
    (fit,) = _mm_stack(win[None], config, init)
    if isinstance(fit, Exception):
        raise fit
    return fit


def _mm_stack(
    win: np.ndarray, config: MMConfig, init=None, trace: bool = True
) -> list:
    """Hunter's MM on each win matrix of the (k, n, n) stack ``win``: per
    row, (scores, MMInfo) or the error its solve raises.  With ``trace``
    off, the MMInfo keeps no likelihood trace (the check still runs), so a
    caller that reads only the scores holds no rows x sweeps floats.

    Every row starts from the uniform vector (or its row of ``init``) and
    keeps the one-matrix rules: a sweep over its observed pairs r < c, the
    ascent check on every iterate's likelihood, the step-size stop at
    ``tol`` within ``max_iter`` sweeps, and the ConvergenceError of an
    update that collapses to zero.  The rows still iterating take each
    sweep together, their denominators from two ``np.bincount`` calls over
    the flat indices row*n + r and row*n + c, and a row leaves when it
    converges or fails.  No row's result depends on the others.
    """
    k, n = win.shape[:2]
    W = win.sum(axis=2)
    slot, fr, fc, Nv = _observed_pairs(win)
    del win  # the sweeps read W and the pairs alone
    counts = np.bincount(slot, minlength=k)
    infos = [MMInfo(iterations=0, final_change=np.inf) for _ in range(k)]
    out: list = [None] * k
    stay = counts > 0  # the rows kept at the next sweep; None: all of them
    if config.max_iter > 0 and np.count_nonzero(stay) < k:
        for d in np.flatnonzero(~stay).tolist():  # no pairs: the update is zero
            out[d] = ConvergenceError("MM update collapsed to the zero vector")
    p = np.full((k, n), 1.0 / n) if init is None else init
    rows = np.arange(k)  # each slot's row
    prev_ll = [-np.inf] * k
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(config.max_iter):
            if stay is not None:
                if np.count_nonzero(stay) < stay.size:  # drop the rows that left
                    pair_stay = stay[slot]
                    kept = slot[pair_stay]
                    slot = (np.cumsum(stay) - 1)[kept]
                    shift = n * (kept - slot)  # the rows renumbered
                    fr, fc = fr[pair_stay] - shift, fc[pair_stay] - shift
                    Nv = Nv[pair_stay]
                    rows, p, W, counts = rows[stay], p[stay], W[stay], counts[stay]
                    prev_ll = list(compress(prev_ll, stay.tolist()))
                    if not rows.size:
                        break
                stay = None
                pinned = (W == 0).astype(float)
                wins = W.ravel()
                starts = counts.cumsum() - counts
                size = rows.size * n
                row_ids = rows.tolist()
                psum = p.ravel()[fr] + p.ravel()[fc]
            q = Nv / psum
            if not psum.min() > 0:  # a pair with p_r + p_c = 0 adds nothing
                q[~(psum > 0)] = 0.0
            denom = np.bincount(fr, q, size) + np.bincount(fc, q, size)
            flat = wins / denom  # 0 for an item without wins
            if not denom.min() > 0:  # an item without comparisons scores 0
                flat[~(denom > 0)] = 0.0
            new = flat.reshape(-1, n)
            s = new.sum(axis=1)
            new /= s[:, None]
            change = np.maximum.reduce(abs(new - p), axis=1)
            p = new
            psum = flat[fr]
            psum += flat[fc]
            lls = _pair_log_likelihood(W, p, pinned, Nv, psum, starts).tolist()
            gone = []
            for a, (d, total, step, ll, before) in enumerate(zip(
                row_ids, s.tolist(), change.tolist(), lls, prev_ll
            )):
                if total <= 0:
                    out[d] = ConvergenceError("MM update collapsed to the zero vector")
                    gone.append(a)
                    continue
                info = infos[d]
                if trace:
                    info.loglik.append(ll)
                if ll < before - _ASCENT_SLACK * (1.0 + abs(ll)):
                    out[d] = RuntimeError(
                        f"MM iteration decreased the log-likelihood ({before} -> {ll})"
                    )
                    gone.append(a)
                    continue
                info.iterations = it + 1
                info.final_change = step
                if step <= config.tol:
                    out[d] = (p[a].copy(), info)
                    gone.append(a)
            prev_ll = lls
            if gone:
                stay = np.ones(rows.size, dtype=bool)
                stay[gone] = False
    for d, info in enumerate(infos):
        if out[d] is None:
            out[d] = ConvergenceError(
                f"MM failed to reach tol {config.tol} in {config.max_iter} "
                f"iterations (last change {info.final_change:.3e})",
                residual=info.final_change,
            )
    return out


def _win_stacks(
    dataset: ComparisonDataset, times, h: float, kernel: Kernel | None,
    before: bool = False,
):
    """Yield (times, kept, mass, win) per grid chunk of ``_pair_sums``, in
    order: ``win`` stacks the chunk's win matrices, one solver stack within
    the tile budget, and ``mass`` marks each time's pairs with mass.  With a
    kernel each such pair splits unit mass into win shares; ``kernel=None``
    (only with ``before``) gives pooled counts.  ``kept`` and ``before`` are
    those of ``_pair_sums``."""
    n = dataset.n
    _, seg_i, seg_j = dataset.pair_segments()
    for chunk, den, won, kept in _pair_sums(dataset, times, h, kernel, before):
        mass = den > 0.0
        if kernel is None:  # pooled counts
            lost = den - won
        else:  # each pair with mass splits unit mass into win shares
            with np.errstate(invalid="ignore"):  # 0/0 for a pair without mass
                won = np.where(mass, won / den, 0.0)
            lost = np.where(mass, 1.0 - won, 0.0)
        yield chunk.tolist(), kept, mass, _win_matrix(n, seg_i, seg_j, won, lost)


def _require_strong_connectivity(win: np.ndarray, graph: str) -> None:
    """Raise ConnectivityError unless the win matrix ``win`` is strongly
    connected, the condition for the MLE to exist in the simplex interior
    (Zermelo 1929; Ford 1957)."""
    report = _component_report(win > 0.0)
    if not report.strongly_connected:
        raise ConnectivityError(
            f"{graph} is not strongly connected "
            f"({report.n_components} components); the MLE does not exist"
        )


def bt_mle_mm(
    dataset: ComparisonDataset,
    config: MMConfig = MMConfig(),
    *,
    strict: bool = True,
    init: np.ndarray | None = None,
    return_info: bool = False,
):
    """Pooled maximum-likelihood scores (all comparisons weighted equally).

    The counts are the walk-forward pass's at t=+inf.  ``strict`` requires
    the win matrix solved to be strongly connected, the condition for the
    maximizer to exist in the simplex interior; with ``strict=False`` items
    the data cannot support are pinned at zero.
    """
    ((_, _, _, win),) = _win_stacks(dataset, [np.inf], 0.0, None, before=True)
    if strict:
        _require_strong_connectivity(win[0], "pooled win graph")
    p, info = _mm_solve(win[0], config, init)
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
    of the pooled likelihood.  ``strict`` requires the matrix of these
    shares, the one solved, to be strongly connected.
    """
    ((_, _, mass, win),) = _win_stacks(dataset, [t], h, kernel)
    if strict:
        _require_strong_connectivity(
            win[0], f"kernel-weighted win graph at t={t}, h={h}"
        )
    if not mass.any():
        raise _no_mass(t, h, before=False)
    p, info = _mm_solve(win[0], config, init)
    sv = ScoreVector(p, t=t)
    return (sv, info) if return_info else sv


def _mm_fits(
    dataset: ComparisonDataset, times, h: float, kernel: Kernel | None,
    config: MMConfig, before: bool = False,
):
    """Yield (kept, fit) for each time, in order, every solve started cold.

    With a kernel, ``fit`` is a ScoreVector, tagged t, with the scores of
    ``wmle(dataset, t, h, kernel, config, strict=False)``; with
    ``kernel=None`` and ``before`` (``h`` unused) its scores are those of
    ``bt_mle_mm(dataset.with_max_time(t), config, strict=False)``, from the
    pooled counts of the records strictly before t.  A fit that would raise
    yields its error instead, and the other times are unaffected.
    ``kept`` and ``before`` are those of ``_pair_sums``; each stack of
    :func:`_win_stacks` goes to :func:`_mm_stack` as one.
    """
    for ts, kept, mass, win in _win_stacks(dataset, times, h, kernel, before):
        fits = _mm_stack(win, config, trace=False)
        for d, t in enumerate(ts):
            fit = fits[d]
            if kernel is not None and not mass[d].any():
                fit = _no_mass(t, h, before)
            elif not isinstance(fit, Exception):
                fit = ScoreVector(fit[0], t=t)
            yield None if kept is None else int(kept[d]), fit


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
    the whole observation window.  It is the untagged pooled fit at t=+inf
    of :func:`~krc.estimator.causal_fits`, raising what that fit yields.
    """
    ((_, fit),) = _fits(dataset, [np.inf], 0.0, None, sigma_n, tol, max_iter, True)
    if not isinstance(fit, ScoreVector):
        raise fit
    return ScoreVector(fit.scores, t=None)
