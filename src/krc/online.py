"""Exact online maintenance of scores via group-inverse rank-one updates.

Let P be the comparison chain, pi its stationary vector, A = I - P, and
A# the group inverse of A (Meyer's framework for Markov chain sensitivity).
A# is the unique matrix with A A# A = A, A# A A# = A#, and A A# = A# A;
for an irreducible chain it can be computed as

    A# = (A + e pi')^{-1} - e pi'

because (A + e pi') A# = I - e pi'.

When one row i of P changes to ``row - delta'`` with ``delta' e = 0`` the
new stationary vector and group inverse follow in closed form:

    eps  = 1 + delta' A#[:, i]
    phi' = (pi_i / eps) * delta' A#
    pi_new = pi - phi
    A#_new = A# + e phi' (A# - (phi' A#[:, i] / pi_i) I) - A#[:, i] phi' / pi_i

Each new comparison touches two rows of P (the pair's), whose deltas have
two nonzeros each, so ``apply_observation`` folds both changes in at once.
Both delta' A# rows come from rows i and j of the old A# in O(n), and both
breakdown checks run before anything is written.  One read pass forms
[phi1; phi2]' A#, and one in-place write pass adds the combined rank-3
correction.  That is O(n^2) with two passes over A#, against a fresh O(n^3)
solve.  The running state refreshes itself from scratch periodically to cap
floating point drift.  The state keeps the batch fit's per-pair kernel sums
and builds its chain as :func:`~krc.estimator.fit_scores` does, so a state
seeded from a dataset has that fit's scores to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .data import ComparisonDataset, ComparisonRecord
from .errors import RosterError, UpdateBreakdownError
from .estimator import (
    ScoreVector,
    TransitionMatrix,
    _chains,
    _disconnected,
    _pair_sums,
    _teleport,
    default_teleport,
    stationary,
)
from .kernels import Kernel

# Denominators this small make the closed-form update numerically useless;
# the caller falls back to a full refresh.
_BREAKDOWN_EPS = 1e-12

# delta vectors built from a pair update cancel exactly; anything beyond
# rounding noise indicates corrupted state.
_MIRROR_SLACK = 1e-12


@dataclass
class GroupInverse:
    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def group_inverse(P: TransitionMatrix, pi: ScoreVector) -> GroupInverse:
    """Group inverse of I - P for an irreducible chain with stationary pi."""
    scores = pi.scores if isinstance(pi, ScoreVector) else np.asarray(pi, dtype=float)
    n = P.n
    A = np.eye(n) - P.entries
    N = A + np.outer(np.ones(n), scores)
    try:
        Ninv = np.linalg.inv(N)
    except np.linalg.LinAlgError:
        raise UpdateBreakdownError(
            "A + e pi' is singular; pi is not the stationary vector of P"
        ) from None
    return GroupInverse(Ninv - np.outer(np.ones(n), scores))


def group_inverse_residuals(
    P: TransitionMatrix, pi: ScoreVector, Ainv: GroupInverse
) -> dict[str, float]:
    """Max-abs residuals of the defining axioms plus the null-space facts
    A# e = 0 and pi' A# = 0.  All should sit at rounding level."""
    scores = pi.scores if isinstance(pi, ScoreVector) else np.asarray(pi, dtype=float)
    A = np.eye(P.n) - P.entries
    G = Ainv.entries
    e = np.ones(P.n)
    return {
        "axiom_AGA": float(np.max(np.abs(A @ G @ A - A))),
        "axiom_GAG": float(np.max(np.abs(G @ A @ G - G))),
        "axiom_commute": float(np.max(np.abs(A @ G - G @ A))),
        "right_null": float(np.max(np.abs(G @ e))),
        "left_null": float(np.max(np.abs(scores @ G))),
    }


def _pivot(dG: np.ndarray, pi_k: float, k: int) -> np.ndarray:
    """Stationary shift phi for a change of row ``k`` whose delta'A# is
    ``dG``; raises UpdateBreakdownError when 1 + dG[k] is numerically zero."""
    eps = 1.0 + dG[k]
    if abs(eps) <= _BREAKDOWN_EPS:
        raise UpdateBreakdownError(
            f"update denominator 1 + delta'A#[:,{k}] = {eps:.3e} too close to zero"
        )
    return (pi_k / eps) * dG


def _shift_row(phi: np.ndarray, phiG: np.ndarray, pi_k: float, k: int) -> np.ndarray:
    """u in A#_new = A# + e u' - A#[:, k] phi' / pi_k, from phiG = phi' A#."""
    return phiG - (phiG[k] / pi_k) * phi


def _add_outer_products(G: np.ndarray, X: np.ndarray, Y: np.ndarray) -> None:
    """G += sum_k outer(X[k], Y[k]) in place, as one BLAS pass over G."""
    if not (G.dtype == np.float64 and G.flags.c_contiguous):
        raise ValueError("group inverse entries must be a C-ordered float64 array")
    # G' is a Fortran-ordered view of G, which dgemm overwrites where it lies.
    dgemm(1.0, Y, X, beta=1.0, c=G.T, trans_a=1, overwrite_c=1)


def rank_one_update(
    pi_old, Ainv_old, delta: np.ndarray, i: int
) -> tuple[ScoreVector, GroupInverse]:
    """Closed-form stationary vector and group inverse after replacing row
    ``i`` of the chain by ``row - delta'``.

    ``delta`` must sum to zero (row stochasticity is preserved) and the
    caller is responsible for the updated row staying a probability row.
    Raises UpdateBreakdownError when 1 + delta' A#[:, i] is numerically
    zero.  The inputs are not modified.
    """
    pi = pi_old.scores if isinstance(pi_old, ScoreVector) else np.asarray(pi_old, float)
    G = Ainv_old.entries if isinstance(Ainv_old, GroupInverse) else np.asarray(Ainv_old)
    delta = np.asarray(delta, dtype=float)
    n = pi.shape[0]
    if delta.shape != (n,):
        raise ValueError(f"delta must have shape ({n},)")
    if not 0 <= i < n:
        raise ValueError(f"row index {i} outside 0..{n - 1}")
    dsum = float(delta.sum())
    if abs(dsum) > 1e-9 * max(1.0, float(np.max(np.abs(delta)))):
        raise ValueError(f"delta must sum to zero, got {dsum}")
    pii = float(pi[i])
    if pii <= 0:
        raise ValueError(f"stationary entry pi[{i}] = {pii} must be positive")

    phi = _pivot(delta @ G, pii, i)
    u = _shift_row(phi, phi @ G, pii, i)
    G_new = np.array(G, dtype=np.float64, order="C")
    _add_outer_products(
        G_new, np.stack([np.ones(n), G[:, i]]), np.stack([u, -phi / pii])
    )
    return ScoreVector(pi - phi, t=getattr(pi_old, "t", None)), GroupInverse(G_new)


def _fold_pair(
    pi: np.ndarray, G: np.ndarray, i: int, j: int, d_ij: float, d_ji: float
) -> None:
    """Overwrite ``pi`` and ``G`` with their values after row i of the chain
    moves ``d_ij`` from entry (i, j) to its diagonal and then row j moves
    ``d_ji`` from (j, i) to its diagonal.

    Equal to ``rank_one_update`` on row i followed by row j, without either
    intermediate matrix.  Raises UpdateBreakdownError, with ``pi`` and ``G``
    untouched, when either denominator is numerically zero or pi_j after the
    first step is not positive.
    """
    pi_i = pi[i]
    diff = G[j] - G[i]
    phi1 = _pivot(d_ij * diff, pi_i, i)
    pi1_j = pi[j] - phi1[j]
    if pi1_j <= 0.0:
        raise UpdateBreakdownError(f"intermediate pi[{j}] = {pi1_j:.3e} not positive")
    # Rows i and j of G1 = G + e u1' - G[:, i] phi1' / pi_i, differenced: the
    # e u1' term cancels, so G1 itself is never formed.
    phi2 = _pivot(-d_ji * (diff + ((G[i, i] - G[j, i]) / pi_i) * phi1), pi1_j, j)

    phiG = np.stack([phi1, phi2]) @ G
    u1 = _shift_row(phi1, phiG[0], pi_i, i)
    col_i = G[:, i].copy()
    # phi2' G1 through G1's definition; phi2' e is zero up to rounding.
    phi2G1 = phiG[1] + phi2.sum() * u1 - ((phi2 @ col_i) / pi_i) * phi1
    u2 = _shift_row(phi2, phi2G1, pi1_j, j)
    col1_j = G[:, j] + u1[j] - (phi1[j] / pi_i) * col_i
    _add_outer_products(
        G,
        np.stack([np.ones(pi.shape[0]), col_i, col1_j]),
        np.stack([u1 + u2, -phi1 / pi_i, -phi2 / pi1_j]),
    )
    pi -= phi1
    pi -= phi2


class OnlineState:
    """Running estimate at a fixed evaluation time t.

    Holds the per-pair kernel sums, the regularized chain, its stationary
    vector, and the group inverse.  In the n x n ``pair_sums``, for i < j,
    ``[i, j]`` is the pair's kernel mass and ``[j, i]`` the mass on records
    item_j won.  ``apply_observation`` folds one record in with one fused,
    in-place pair update; every ``refresh_every`` updates (or on numerical
    breakdown) everything is recomputed from the running sums.
    Single-writer: mutate from one thread only.
    """

    def __init__(
        self,
        n: int,
        t: float,
        h: float,
        kernel: Kernel,
        sigma_n: float | None = None,
        refresh_every: int = 500,
        tol: float = 1e-10,
    ):
        self._start(n, t, h, kernel, sigma_n, refresh_every, tol, None)

    def _start(self, n, t, h, kernel, sigma_n, refresh_every, tol, pair_sums):
        """Check the settings, set every field, and refresh from ``pair_sums``
        (None: no mass yet)."""
        if n < 2:
            raise ValueError("need at least two items")
        if not h > 0:
            raise ValueError(f"bandwidth must be positive, got {h}")
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        self.n = int(n)
        self.t = float(t)
        self.h = float(h)
        self.kernel = kernel
        self.sigma_n = default_teleport(n) if sigma_n is None else float(sigma_n)
        self.refresh_every = int(refresh_every)
        self.tol = float(tol)
        self.pair_sums = np.zeros((n, n)) if pair_sums is None else pair_sums
        self.updates_since_refresh = 0
        self.P: TransitionMatrix
        self.pi: ScoreVector
        self.Ainv: GroupInverse
        refresh(self)

    @classmethod
    def from_dataset(
        cls,
        dataset: ComparisonDataset,
        t: float,
        h: float,
        kernel: Kernel,
        sigma_n: float | None = None,
        refresh_every: int = 500,
        tol: float = 1e-10,
    ) -> "OnlineState":
        """Running state seeded with the per-pair kernel sums of every record
        in ``dataset``, from the kernel pass of the batch fit; the same
        checks as the constructor."""
        sums = np.zeros((dataset.n, dataset.n))
        if dataset.n_records:
            _, seg_i, seg_j = dataset.pair_segments()
            _, den, num, _ = next(_pair_sums(dataset, [t], h, kernel))
            sums[seg_i, seg_j], sums[seg_j, seg_i] = den[0], num[0]
        state = cls.__new__(cls)
        state._start(dataset.n, t, h, kernel, sigma_n, refresh_every, tol, sums)
        return state


def refresh(state: OnlineState) -> OnlineState:
    """Recompute chain, stationary vector, and group inverse from scratch.

    A ``sigma_n=0`` chain passes the batch fit's connectivity gate first.
    The state changes only once all three are computed, so a raised error
    leaves it as it was."""
    i, j = np.triu_indices(state.n, 1)
    den, num = state.pair_sums[i, j], state.pair_sums[j, i]
    with np.errstate(invalid="ignore"):  # 0/0 for a pair without mass
        chain = _chains(state.n, i, j, num / den, den > 0.0)
    if state.sigma_n == 0.0:
        for err in _disconnected(chain[None], [state.t], before=False).values():
            raise err
    P = TransitionMatrix(_teleport(chain, state.sigma_n))
    pi = ScoreVector(stationary(P, tol=state.tol).scores, t=state.t)
    state.P, state.pi, state.Ainv = P, pi, group_inverse(P, pi)
    state.updates_since_refresh = 0
    return state


def apply_observation(state: OnlineState, record) -> OnlineState:
    """Fold one comparison record into the running state.

    Records whose kernel weight at the state's evaluation time is zero
    leave the state untouched.  Otherwise rows i and j of P change in
    their diagonal and (i, j) / (j, i) entries and the stationary vector
    and group inverse are updated in closed form, in place.  For a pair
    that already carries mass the two off-diagonal moves are equal and
    opposite; the first in-window record of a pair also lifts the pair sum
    from its teleport floor, so both deltas are computed directly.  If the
    record cannot be folded in, the state is left as it was and the error
    is raised.
    """
    if isinstance(record, tuple):
        record = ComparisonRecord(*record)
    rec = record.canonical()
    i, j, y = rec.item_i, rec.item_j, rec.outcome
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise RosterError(
            f"record items ({i}, {j}) outside roster of size {state.n}"
        )
    w = float(state.kernel.weight(state.t, rec.time, state.h))
    if w == 0.0:
        return state

    n, sigma = state.n, state.sigma_n
    sums = state.pair_sums
    old_den, old_num = sums[i, j], sums[j, i]
    den, num = old_den + w, old_num + w * y
    frac = num / den
    p_new_ij = (1.0 - sigma) * (frac / n) + sigma / n
    p_new_ji = (1.0 - sigma) * ((1.0 - frac) / n) + sigma / n
    P = state.P.entries
    d_ij = P[i, j] - p_new_ij
    d_ji = P[j, i] - p_new_ji

    # With prior mass the pair's off-diagonal sum is pinned, so row j's
    # entry must move exactly opposite to row i's.
    if old_den > 0.0 and abs(d_ji + d_ij) > _MIRROR_SLACK:
        raise RuntimeError(
            f"pair complement drift: {d_ji + d_ij:.3e} beyond slack"
        )
    sums[i, j], sums[j, i] = den, num

    try:
        _fold_pair(state.pi.scores, state.Ainv.entries, i, j, d_ij, d_ji)
    except UpdateBreakdownError:
        # Nothing was written yet.  The sums already include the new
        # record, so rebuilding from them is exact; if that fails too, take
        # the record back out.
        try:
            return refresh(state)
        except BaseException:
            sums[i, j], sums[j, i] = old_den, old_num
            raise

    P[i, j] = p_new_ij
    P[i, i] += d_ij
    P[j, i] = p_new_ji
    P[j, j] += d_ji
    state.updates_since_refresh += 1
    pi = state.pi.scores
    if state.updates_since_refresh >= state.refresh_every or np.min(pi) <= 0:
        refresh(state)
    return state
