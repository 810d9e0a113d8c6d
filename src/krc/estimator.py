"""Kernel-smoothed rank-centrality transition matrices and their stationary
distributions.

For items i != j the transition entry at evaluation time t is

    P[i, j] = (1/n) * sum_k y_ij(t_k) K_h(t, t_k) / sum_k K_h(t, t_k)

over the pair's observation times, with the diagonal absorbing the slack so
every row sums to one.  The chain encodes "i passes votes to whoever beats
it"; its stationary distribution is the score vector.  With the idealized
entries (1/n) * pi_j / (pi_i + pi_j) the chain is reversible and stationary
at pi itself, which is what makes the estimator consistent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .data import ComparisonDataset
from .errors import ConvergenceError, EstimationError
from .kernels import Kernel

# Diagonal entries may come out negative by accumulated rounding only; a
# deficit beyond this is a logic error, not noise.
_DIAG_SLACK = 1e-12


@dataclass
class TransitionMatrix:
    """Row-stochastic comparison chain; ``regularization`` is the applied
    teleportation weight (0 when none)."""

    entries: np.ndarray
    regularization: float = 0.0

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def check(self, tol: float = 1e-12) -> None:
        """Raise if the matrix is not a valid comparison chain."""
        P = self.entries
        n = self.n
        if P.shape != (n, n):
            raise ValueError("entries must be square")
        if np.min(P) < -tol:
            raise ValueError(f"negative entry {np.min(P)}")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > tol:
            raise ValueError(f"row sums off by {np.max(np.abs(rows - 1.0))}")
        off = P[~np.eye(n, dtype=bool)]
        if off.size and np.max(off) > 1.0 / n + tol:
            raise ValueError(f"off-diagonal entry above 1/n: {np.max(off)}")


@dataclass
class ScoreVector:
    """Simplex-normalized item scores, optionally tagged with the
    evaluation time they belong to (None for static estimates)."""

    scores: np.ndarray
    t: float | None = None

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    def residual(self, P: TransitionMatrix) -> float:
        """Stationarity residual ||pi' P - pi'||_inf."""
        pi = self.scores
        return float(np.max(np.abs(pi @ P.entries - pi)))


def default_teleport(n: int) -> float:
    """Default regularization weight sigma_n = 1/n."""
    return 1.0 / n


def _fill_diagonal(P: np.ndarray) -> None:
    n = P.shape[0]
    np.fill_diagonal(P, 0.0)
    diag = 1.0 - P.sum(axis=1)
    if np.min(diag) < -_DIAG_SLACK:
        raise RuntimeError(
            f"diagonal deficit {np.min(diag)} exceeds rounding slack"
        )
    np.clip(diag, 0.0, None, out=diag)
    np.fill_diagonal(P, diag)


def pair_fractions(
    dataset: ComparisonDataset, t: float, h: float, kernel: Kernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted win fraction for every pair with mass at (t, h).

    Returns (item_i, item_j, fraction) restricted to pairs whose kernel
    mass is positive; the fraction is the weighted share of outcomes item_j
    won.  This shared aggregate feeds both the comparison chain and the
    weighted likelihood.  It is the one-point case of :func:`estimate_curve`.
    """
    return next(_fractions_along(dataset, [t], h, kernel))[1]


# Element budget of one (grid points x records) weight tile, about 8 MB per
# float64 temporary.  It sizes the grid chunks and the record blocks.
TILE_ELEMENTS = 1 << 20


def _fractions_along(dataset: ComparisonDataset, time_grid, h: float, kernel: Kernel):
    """Yield (t, (item_i, item_j, fraction)) for each grid point, in order.

    Grid points go in chunks whose per-pair sums fit the budget, records in
    blocks that end on pair boundaries, so each pair's kernel mass (den) and
    won mass (num) are one ``np.add.reduceat`` over its whole segment of a
    (chunk x block) weight tile.
    """
    grid = np.asarray(time_grid, dtype=float).ravel()
    if grid.size and not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if grid.size and dataset.n_records == 0:
        raise EstimationError("no comparison records to aggregate")
    starts, seg_i, seg_j = dataset.pair_segments()
    bounds = starts.tolist() + [dataset.n_records]
    won = dataset.outcomes.astype(float)
    rows = max(1, TILE_ELEMENTS // max(1, starts.size))
    for g in range(0, grid.size, rows):
        chunk = grid[g:g + rows]
        block = TILE_ELEMENTS // chunk.size  # a longer pair is a block alone
        den, num = np.empty((2, chunk.size, starts.size))
        s = 0
        while s < starts.size:
            a = bounds[s]
            e = max(bisect.bisect_right(bounds, a + block) - 1, s + 1)
            offsets = starts[s:e] - a
            w = kernel.weight(chunk[:, None], dataset.times[a:bounds[e]], h)
            np.add.reduceat(w, offsets, axis=1, out=den[:, s:e])
            w *= won[a:bounds[e]]  # zero the records item_j lost; weights are finite
            np.add.reduceat(w, offsets, axis=1, out=num[:, s:e])
            s = e
        for t, den_t, num_t in zip(chunk.tolist(), den, num):
            mass = den_t > 0.0
            if not mass.any():
                raise EstimationError(
                    f"zero kernel mass for every observed pair at t={t}, h={h}"
                )
            yield t, (seg_i[mass], seg_j[mass], num_t[mass] / den_t[mass])


def transition_from_fractions(
    n: int, idx_i: np.ndarray, idx_j: np.ndarray, frac: np.ndarray
) -> TransitionMatrix:
    """Assemble the comparison chain from per-pair win fractions.

    Pairs absent from the index arrays contribute nothing (their
    off-diagonal entries stay 0).
    """
    P = np.zeros((n, n))
    P[idx_i, idx_j] = frac / n
    P[idx_j, idx_i] = (1.0 - frac) / n
    _fill_diagonal(P)
    return TransitionMatrix(P)


def build_transition(
    dataset: ComparisonDataset, t: float, h: float, kernel: Kernel
) -> TransitionMatrix:
    """Kernel-weighted transition matrix at evaluation time ``t``.

    Pairs with zero kernel mass at (t, h) contribute nothing (their
    off-diagonal entries stay 0).  If every observed pair has zero mass the
    problem is degenerate and an EstimationError is raised.
    """
    return transition_from_fractions(dataset.n, *pair_fractions(dataset, t, h, kernel))


def build_ideal_transition(pi) -> TransitionMatrix:
    """Idealized chain (1/n) * pi_j / (pi_i + pi_j) for a known score vector.

    Satisfies detailed balance pi_i P[i, j] = pi_j P[j, i], so its stationary
    distribution is exactly ``pi``.
    """
    scores = pi.scores if isinstance(pi, ScoreVector) else np.asarray(pi, dtype=float)
    if scores.ndim != 1 or scores.shape[0] < 2:
        raise ValueError("need a score vector of length >= 2")
    if np.min(scores) <= 0:
        raise ValueError("scores must be strictly positive")
    n = scores.shape[0]
    P = scores[None, :] / (scores[:, None] + scores[None, :]) / n
    _fill_diagonal(P)
    return TransitionMatrix(P)


def regularize(P: TransitionMatrix, sigma_n: float) -> TransitionMatrix:
    """Blend with the uniform chain: (1 - sigma) P + sigma/n.

    Guarantees irreducibility (every entry >= sigma/n) at a perturbation of
    the stationary vector that vanishes with sigma.  sigma_n = 0 returns the
    matrix unchanged.
    """
    if not 0.0 <= sigma_n < 1.0:
        raise ValueError(f"sigma_n must be in [0, 1), got {sigma_n}")
    if sigma_n == 0.0:
        return TransitionMatrix(P.entries.copy(), P.regularization)
    n = P.n
    entries = (1.0 - sigma_n) * P.entries + sigma_n / n
    combined = 1.0 - (1.0 - P.regularization) * (1.0 - sigma_n)
    return TransitionMatrix(entries, combined)


def stationary(
    P: TransitionMatrix, tol: float = 1e-10, max_iter: int = 100_000
) -> ScoreVector:
    """Stationary distribution by power iteration with a dense fallback.

    Iterates pi' <- pi' P from the uniform start until the infinity-norm
    residual drops below ``tol``.  If the iteration stalls (slow geometric
    rate or max_iter reached) the rank-deficient linear system is solved
    directly with a normalization row.  A final residual above ``tol``
    raises ConvergenceError.
    """
    M = P.entries
    n = P.n
    pi = np.full(n, 1.0 / n)
    check_every = 1000
    last_res = np.inf
    stalled = False
    for it in range(max_iter):
        nxt = pi @ M
        s = nxt.sum()
        if s <= 0 or not np.isfinite(s):
            stalled = True
            break
        nxt /= s
        res = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if res <= tol:
            return ScoreVector(pi)
        if (it + 1) % check_every == 0:
            # No halving over a full window means the asymptotic rate is too
            # slow for iteration to be worthwhile.
            if res > 0.5 * last_res:
                stalled = True
                break
            last_res = res
    pi = _direct_stationary(M)
    sv = ScoreVector(pi)
    res = sv.residual(P)
    if res > tol:
        raise ConvergenceError(
            f"stationary solve residual {res:.3e} above tol {tol:.3e}"
            + (" (after stall fallback)" if stalled else ""),
            residual=res,
        )
    return sv


def _direct_stationary(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    B = (np.eye(n) - M).T.copy()
    B[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(B, rhs, rcond=None)
    np.clip(pi, 0.0, None, out=pi)
    s = pi.sum()
    if s <= 0:
        raise ConvergenceError("direct stationary solve produced a zero vector")
    return pi / s


def _solve(n, fractions, t, sigma_n, tol, max_iter) -> ScoreVector:
    sigma = default_teleport(n) if sigma_n is None else sigma_n
    P = regularize(transition_from_fractions(n, *fractions), sigma)
    sv = stationary(P, tol=tol, max_iter=max_iter)
    return ScoreVector(sv.scores, t=t)


def fit_scores(
    dataset: ComparisonDataset,
    t: float,
    h: float,
    kernel: Kernel,
    sigma_n: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> ScoreVector:
    """Build, regularize, and solve in one step; the everyday entry point.

    ``sigma_n=None`` means the default teleport 1/n; pass 0.0 explicitly to
    disable regularization.
    """
    fractions = pair_fractions(dataset, t, h, kernel)
    return _solve(dataset.n, fractions, t, sigma_n, tol, max_iter)


def estimate_curve(
    dataset: ComparisonDataset,
    time_grid,
    h: float,
    kernel: Kernel,
    sigma_n: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> list[ScoreVector]:
    """Score vectors along a time grid, one per point in the given order.

    Per-pair kernel sums come from one blocked pass per grid chunk; each
    point is then solved as :func:`fit_scores` would, and the first point
    (in grid order) at which fit_scores would raise raises the same error.
    """
    return [
        _solve(dataset.n, fractions, t, sigma_n, tol, max_iter)
        for t, fractions in _fractions_along(dataset, time_grid, h, kernel)
    ]


def spectral_gap(P: TransitionMatrix) -> float:
    """1 - |lambda_2|: distance from the unit eigenvalue to the rest.

    Computed from the full dense spectrum; the eigenvalue closest to 1 is
    treated as the Perron root.
    """
    ev = np.linalg.eigvals(P.entries)
    anchor = int(np.argmin(np.abs(ev - 1.0)))
    rest = np.delete(ev, anchor)
    if rest.size == 0:
        return 1.0
    return float(1.0 - np.max(np.abs(rest)))
