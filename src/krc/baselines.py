"""Baseline rating methods: static rank centrality, Elo, and maximum
likelihood under the pairwise preference model (pooled and kernel-weighted).

The MLE solver is a safeguarded Newton method on theta = log p for the
(weighted) Bradley-Terry likelihood sum_i W_i log p_i - sum_{i<j} N_ij
log(p_i + p_j).  Its score in theta is W_i - sum_j N_ij p_i / (p_i + p_j);
its negative Hessian is the Laplacian of N_ij p_i p_j / (p_i + p_j)^2.
Items without wins are pinned at zero, where the likelihood pushes them;
the others have an interior maximizer exactly when their win graph is
strongly connected (Zermelo 1929; Ford 1957), checked before any step.
Every step passes an ascent check, and a fit stops on the score equations
relative to each item's win mass.  The kernel-weighted variant replaces
counts by per-pair normalized win shares at the evaluation time, so each
observed pair carries unit mass.  Hunter's (2004) MM, which this solver
replaced, stays in the tests as the reference.

The solver takes a stack of win matrices: the rows still iterating share
each batched linear solve, and a row leaves when it converges or fails, with
the result it would have alone.  A single solve is its one-row case.
:func:`_mm_sums` is the MLE's stack solver in ``estimator._fits``, the one
pass every fit runs, each row started cold: a weighted-MLE curve, the
walk-forward pooled and weighted MLE on the records strictly before each
day, and, as one-point cases, ``bt_mle_mm`` (pooled, at t=+inf) and ``wmle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ComparisonDataset
from .errors import ConnectivityError, ConvergenceError
from .estimator import ScoreVector, _fitted, _no_mass, _solve_sums, _strong_components
from .kernels import Kernel

_ASCENT_SLACK = 1e-8
_HALVINGS = 40  # step halvings a Newton step may take before its row fails


@dataclass(frozen=True)
class EloConfig:
    k_factor: float = 20.0
    initial_rating: float = 1500.0
    logistic_scale: float = 400.0


@dataclass(frozen=True)
class MMConfig:
    tol: float = 1e-10  # bound on max_i |W_i - sum_j N_ij p_i/(p_i+p_j)| / W_i
    max_iter: int = 10_000  # Newton steps before a fit fails


@dataclass
class MMInfo:
    iterations: int  # Newton steps taken
    final_change: float  # the last relative score residual, which tol bounds
    loglik: list[float] = field(default_factory=list)  # at the start, then each step


def elo_expected(r_a: float, r_b: float, scale: float = 400.0) -> float:
    """Expected score of the first player against the second."""
    return 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / scale))


def elo_update(ratings: np.ndarray, i: int, j: int, y: int, config: EloConfig) -> None:
    """Apply one game between i and j (y = 1 when j won) to ``ratings`` in place."""
    e_j = elo_expected(ratings[j], ratings[i], config.logistic_scale)
    ratings[j] += config.k_factor * (y - e_j)
    ratings[i] += config.k_factor * ((1 - y) - (1.0 - e_j))


# -- MLE core --------------------------------------------------------------


def _win_matrix(n: int, idx_i, idx_j, won, lost) -> np.ndarray:
    """``win[..., a, b]``, the win mass of a over b, from each pair's item_j
    mass over item_i (``won``) and item_i mass over item_j (``lost``); a
    stack of (..., pairs) masses gives a stack of matrices."""
    win = np.zeros(np.shape(won)[:-1] + (n, n))
    win[..., idx_j, idx_i] = won
    win[..., idx_i, idx_j] = lost
    return win


def _pair_log_likelihood(W, p, pinned, N, absent) -> np.ndarray:
    """Each row's log-likelihood sum_i W_i log p_i - sum_{i<j} N_ij log(p_i +
    p_j), from its win masses ``W`` and scores ``p`` (rows x n) and its pair
    masses ``N`` (rows x n x n, symmetric).  ``pinned`` is 1 where W = 0 and
    ``absent`` 1 where N = 0 (0 elsewhere), so 0 log 0 counts 0."""
    items = (W * np.log(p + pinned)).sum(axis=-1)
    pairs = N * np.log(p[:, :, None] + p[:, None, :] + absent)
    return items - 0.5 * pairs.sum(axis=-1).sum(axis=-1)


def _newton_steps(H: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Solve the stack of systems H x = score in one call or, if one is
    singular in floating point, one at a time, a singular one's x NaN."""
    try:
        return np.linalg.solve(H, score[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.full_like(score, np.nan)
        return np.concatenate([_newton_steps(H[a:a + 1], score[a:a + 1]) for a in range(len(H))])


def _mm_solve(win: np.ndarray, config: MMConfig) -> tuple[np.ndarray, MMInfo]:
    """Maximize the preference likelihood of one win matrix on the simplex.

    ``win[a, b]`` is the (possibly fractional) win mass of a over b.  This is
    the one-row case of :func:`_mm_stack`.
    """
    (fit,) = _mm_stack(win[None], config)
    if isinstance(fit, Exception):
        raise fit
    return fit


def _mm_stack(win: np.ndarray, config: MMConfig) -> list:
    """Safeguarded Newton on theta = log p for each win matrix of the (k, n,
    n) stack ``win``: per row, (scores, MMInfo) or the error its solve
    raises.  The MMInfo keeps the likelihood trace, from the start.

    Per row, items without wins are pinned at 0.  Before any step, a row
    without wins collapses (once ``max_iter`` > 0), and a row whose items
    with wins are not strongly connected is a ConnectivityError.  The others
    start from their win rates W_a / sum_b N_ab; the item with most wins is
    held fixed.  Each iteration solves the rows' Newton systems, the
    Laplacians of c_ab = N_ab p_a p_b / (p_a + p_b)^2 with the fixed items'
    rows and columns made unit, in one ``np.linalg.solve``; a row whose
    system is singular fails alone.  A row halves its step until the
    likelihood passes the ascent check, and fails after ``_HALVINGS``
    halvings.  It stops once max_a |W_a - sum_b N_ab p_a / (p_a + p_b)| / W_a
    <= ``tol`` over its items with wins, or fails after ``max_iter`` steps or
    at once when a step leaves its scores bitwise unchanged.
    Every reduction runs along a row's own axes, so no row's result depends
    on the others.
    """
    k, n = win.shape[:2]
    W = win.sum(axis=2)
    wins = W > 0
    out: list = [None] * k
    empty = ~wins.any(axis=1)
    if config.max_iter > 0:  # a row without wins collapses at its first step
        for d in np.flatnonzero(empty).tolist():
            out[d] = ConvergenceError("no wins: the scores collapsed to the zero vector")
    # The items with wins must share one strong component of the win graph;
    # an item without wins has no out-edge, so no path runs through it.
    labels = _strong_components(win > 0.0)
    supported = (np.where(wins, labels, labels.size).min(axis=1)
                 == np.where(wins, labels, -1).max(axis=1))
    for d in np.flatnonzero(~supported & ~empty).tolist():
        out[d] = ConnectivityError("the items with wins are not strongly connected; "
                                   "the MLE does not exist")
    rows = np.flatnonzero(supported)
    W, wins = W[rows], wins[rows]
    N = win[rows] + np.swapaxes(win[rows], 1, 2)
    rates = W / (N.sum(axis=-1) + ~wins)  # 0, not 0/0, for an item without wins
    p = np.where(wins, rates, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    del win  # the iterations read W and N alone
    absent = (N == 0).astype(float)
    pinned = (~wins).astype(float)
    free = wins.copy()
    # The item with the most wins is held fixed: its score equation, the one
    # left out, then carries the others' rounding relative to the most mass.
    free[np.arange(rows.size), W.argmax(axis=1)] = False
    unit = -(free[:, :, None] & free[:, None, :]).astype(float)  # -1 or 0
    steps = np.zeros(rows.size, dtype=np.int64)
    failed = np.zeros(rows.size, dtype=bool)
    last = np.full(k, np.inf)  # each row's residual when it runs out of steps
    diag = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = _pair_log_likelihood(W, p, pinned, N, absent)  # -inf if a win rate underflows
        traces = {d: [x] for d, x in zip(rows.tolist(), ll.tolist())}
        for it in range(config.max_iter + 1):
            if not rows.size:
                break
            F = p[:, :, None] / (p[:, :, None] + p[:, None, :] + absent)
            C = N * F
            g = W - C.sum(axis=-1)  # the score in theta
            resid = np.max(abs(g) / (W + pinned), axis=1)
            done = (resid <= config.tol) & ~failed
            for a in np.flatnonzero(done).tolist():
                info = MMInfo(int(steps[a]), float(resid[a]), traces[rows[a]])
                out[rows[a]] = (p[a].copy(), info)
            keep = ~done & ~failed
            if it == config.max_iter:
                last[rows] = resid
                break
            if not keep.all():
                rows, W, pinned, N, absent, free, unit, p, ll, steps, F, C, g, resid = (
                    x[keep] for x in
                    (rows, W, pinned, N, absent, free, unit, p, ll, steps, F, C, g, resid)
                )
                failed = failed[keep]
                if not rows.size:
                    break
            C *= np.swapaxes(F, 1, 2)  # c_ab, from p_b / (p_a + p_b), not 1 - F
            degree = C.sum(axis=-1)
            C *= unit  # the fixed items' rows and columns are unit
            C[:, diag, diag] = np.where(free, degree, 1.0)
            step = _newton_steps(C, np.where(free, g, 0.0))
            solved = np.isfinite(step).all(axis=1)
            for a in np.flatnonzero(~solved).tolist():
                failed[a] = True
                out[rows[a]] = ConvergenceError("the Newton system is singular in floating point")
            todo = np.flatnonzero(solved)
            for r in range(_HALVINGS + 1):
                at = slice(None) if todo.size == rows.size else todo
                z = step[at] * 0.5**r
                z -= z.max(axis=1, keepdims=True)
                q = p[at] * np.exp(z)
                q /= q.sum(axis=1, keepdims=True)
                llq = _pair_log_likelihood(W[at], q, pinned[at], N[at], absent[at])
                ok = llq >= ll[at] - _ASCENT_SLACK * (1.0 + np.abs(llq))
                took, q = todo[ok], q[ok]
                # A step that leaves every score bitwise equal would repeat
                # itself: the row is at a fixed point short of tol.
                for a in took[(q == p[took]).all(axis=1)].tolist():
                    failed[a] = True
                    out[rows[a]] = ConvergenceError(
                        f"MLE stalled: a Newton step left the scores unchanged "
                        f"(residual {resid[a]:.3e})",
                        residual=float(resid[a]),
                    )
                p[took], ll[took] = q, llq[ok]
                steps[took] += 1
                for a, x in zip(took.tolist(), llq[ok].tolist()):
                    traces[rows[a]].append(x)
                todo, llq = todo[~ok], llq[~ok]
                if not todo.size:
                    break
            for a, x in zip(todo.tolist(), llq.tolist()):
                failed[a] = True
                out[rows[a]] = RuntimeError(
                    f"every Newton step length decreased the log-likelihood "
                    f"({ll[a]} -> {x} at the shortest)"
                )
    for d, fit in enumerate(out):
        if fit is None:
            out[d] = ConvergenceError(
                f"MLE failed to reach tol {config.tol} in {config.max_iter} "
                f"iterations (last residual {last[d]:.3e})",
                residual=float(last[d]),
            )
    return out


def _mm_sums(
    n: int, idx_i, idx_j, ts: list, den: np.ndarray, won: np.ndarray, h: float,
    config: MMConfig, pooled: bool, before: bool = False,
) -> list:
    """A fit per row of the (len(ts) x pairs) per-pair sums ``den`` and
    ``won`` over the pairs (idx_i, idx_j), every row started cold: (ScoreVector
    tagged with its time in ``ts``, MMInfo), or the error that fit raises.

    ``pooled`` sums are counts; otherwise each pair with mass splits unit
    mass into win shares, and a row without mass is EstimationError.  The
    rows' win matrices go to :func:`_mm_stack` as one stack.
    """
    mass = den > 0.0
    if pooled:
        lost = den - won
    else:  # each pair with mass splits unit mass into win shares
        with np.errstate(invalid="ignore"):  # 0/0 for a pair without mass
            won = np.where(mass, won / den, 0.0)
        lost = np.where(mass, 1.0 - won, 0.0)
    fits = _mm_stack(_win_matrix(n, idx_i, idx_j, won, lost), config)
    for d, (t, fit) in enumerate(zip(ts, fits)):
        if not pooled and not mass[d].any():
            fits[d] = _no_mass(t, h, before)
        elif not isinstance(fit, Exception):
            fits[d] = ScoreVector(fit[0], t=t), fit[1]
    return fits


def _one_point(fit, t, strict: bool, return_info: bool, graph: str):
    """The ScoreVector, tagged t (with its MMInfo if ``return_info``), of one
    fitted point of :func:`_mm_sums`.  An item is at exactly 0 only if it
    never won (an item with wins at 0 has residual 1), which ``strict``
    makes an error."""
    sv, info = fit
    if strict and not sv.scores.all():
        raise ConnectivityError(f"an item never won in the {graph}; the MLE does not exist")
    sv = ScoreVector(sv.scores, t=t)
    return (sv, info) if return_info else sv


def bt_mle_mm(
    dataset: ComparisonDataset,
    config: MMConfig = MMConfig(),
    *,
    strict: bool = True,
    return_info: bool = False,
):
    """Pooled maximum-likelihood scores (all comparisons weighted equally).

    This is the untagged pooled fit at t=+inf of :func:`_mm_sums`, raising
    its error.  Items without wins are pinned at zero, and the others' win
    graph must be strongly connected; ``strict`` also requires every item to
    have won, the condition for the maximizer to exist in the simplex interior.
    """
    (fit,) = _fitted(dataset, [np.inf], 0.0, None, _mm_sums, config, True, before=True)
    return _one_point(fit, None, strict, return_info, "pooled win graph")


def wmle(
    dataset: ComparisonDataset,
    t: float,
    h: float,
    kernel: Kernel,
    *,
    strict: bool = True,
    return_info: bool = False,
):
    """Kernel-weighted maximum-likelihood scores at evaluation time t.

    Each pair observed at (t, h) contributes unit mass split into weighted
    win shares S_ij = sum_k y_ij(t_k) K_h(t, t_k) / sum_k K_h(t, t_k).
    Maximizing sum S_ij log(p_j / (p_i + p_j)) is then a weighted version
    of the pooled likelihood.  This is the one-point case of :func:`_mm_sums`,
    raising its error; ``strict`` is :func:`bt_mle_mm`'s, on the matrix of
    these shares, the one solved.
    """
    (fit,) = _fitted(dataset, [t], h, kernel, _mm_sums, MMConfig(), False)
    return _one_point(fit, t, strict, return_info,
                      f"kernel-weighted win graph at t={t}, h={h}")


# -- static rank centrality ------------------------------------------------


def static_rank_centrality(
    dataset: ComparisonDataset,
    sigma_n: float | None = None,
    tol: float = 1e-10,
) -> ScoreVector:
    """Stationary scores of the pooled comparison chain (no smoothing).

    Off-diagonal entries are (1/n) times the pooled win fraction, exactly
    the kernel estimator's limit under a flat kernel wide enough to cover
    the whole observation window.  It is the untagged pooled fit at t=+inf
    of :func:`~krc.estimator._solve_sums`, raising its error.
    """
    (fit,) = _fitted(dataset, [np.inf], 0.0, None, _solve_sums, sigma_n, tol, before=True)
    return ScoreVector(fit.scores, t=None)
