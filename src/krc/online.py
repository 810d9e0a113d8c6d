"""Exact online maintenance of scores via group-inverse rank-one updates.

Let P be the comparison chain, pi its stationary vector, A = I - P, and
A# the group inverse of A (Meyer's framework for Markov chain sensitivity).
A# is the unique matrix with A A# A = A, A# A A# = A#, and A A# = A# A;
for an irreducible chain it can be computed as

    A# = (A + e pi')^{-1} - e pi'

because (A + e pi') A# = I - e pi'.

When the chain changes to P - v w' with w' e = 0, so that its rows stay
stochastic, Meyer's (1980) identity A#_new = (I - e pi_new') A# (I + v w' A#)^-1
gives the new stationary vector and group inverse in closed form.  It is
applied to any H = A# + e x': as w' e = 0, w' H = w' A#, so

    eps = 1 + w' H v,   pi_new = pi - (pi' v / eps) w' H,
    H_new = H - (H v)(w' H) / eps,

and H_new = A#_new + e x_new'.  Meyer's term e u', which keeps pi' A# = 0
and costs a read of all of A#, is left out; A# = (I - e pi') H on read.

The paper's change of row i to ``row - delta'`` is v = e_i, w = delta
(``rank_one_update``).  A comparison of items i and j moves d_ij from (i, j)
to row i's diagonal and d_ji from (j, i) to row j's: v = d_ij e_i - d_ji e_j,
w = e_j - e_i, so ``apply_observation`` folds it as one rank-one change.  It
reads two rows and two columns of H, checks eps before any state is written,
and queues its correction (H v, -w' H / eps); rows and columns are read
through the queue, and one BLAS-3 pass writes it into H every ``_PENDING``
records (delayed updates: McDaniel et al. 2017).  A record costs
O(n _PENDING), against a fresh O(n^3) solve; its scalar work is done on
Python floats.

Every ``refresh_every`` records the running state checks two residuals
(``_check``): pi's, max|pi' P - pi'|, and a fixed probe z's,
max|(I - P) A# z - (z - e pi' z)|, with A# z read through the queue.  A#
bounds pi's error by a constant times its residual (Cho and Meyer 2001),
and folds keep both residuals at rounding level.  Only a state whose
residuals exceed ``_CHECK_SLACK`` n eps times max pi, or times max|A# z|
(a seed solved only to ``tol``, or a corrupted H), is refreshed from
scratch, with one inverse.  Take any c with c' e != 0 and let
N = A + e c'.  As N e = (c' e) e, N^-1 A = I - e c' / (c' e), so

    pi' = c' N^-1   has   pi' A = 0   and   pi' e = 1:

pi is the stationary vector whatever c is.  And (N^-1 - A#) maps e to
e / (c' e) and A z to e (pi - c / (c' e))' z, so every column of N^-1 - A#
is a multiple of e: N^-1 = A# + e x' is itself a valid H.  A refresh
therefore takes c = the running pi, which sums to 1, and needs no
stationary solve and no subtraction of e pi'; ``tol`` bounds the residual
max|pi' P - pi'| it accepts.  The state keeps the batch fit's per-pair
kernel sums in one n x n array, and builds its chain from the pairs above
the diagonal with the chain stage of :func:`~krc.estimator.fit_scores`,
``estimator._chain_stack``, as a stack of one: the same chain, teleport
and ``sigma_n=0`` gate.  LAPACK factors and inverts N' in place, in N's
own memory.  The seeding refresh, with no running pi yet, solves the
chain as that fit does, by ``stationary`` and ``group_inverse``, so a
state seeded from a dataset has the fit's scores to the last bit.  A
seed that is exact only to ``tol`` fails the state's first check, which
refreshes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ComparisonDataset, _check_record
from .errors import ConvergenceError, RosterError, UpdateBreakdownError
from .estimator import (
    ScoreVector,
    TransitionMatrix,
    _chain_stack,
    _pair_sums,
    _value,
    default_teleport,
    stationary,
)
from .kernels import Kernel

# Denominators this small make the closed-form update numerically useless;
# the caller falls back to a full refresh.
_BREAKDOWN_EPS = 1e-12

# A check passes when each residual is within this many n eps of the scale
# of what it bounds.  Clean folds stay within 6 n eps at 5 to 500 items; a
# seed solved to tol 1e-10 is about 1e5 n eps off.
_CHECK_SLACK = 64.0

# A pair update's two moves cancel exactly; anything beyond rounding noise
# indicates corrupted state.
_MIRROR_SLACK = 1e-12

# Rank-one corrections a running state queues before writing them into H.
_PENDING = 16


@dataclass
class GroupInverse:
    entries: np.ndarray


def _inverse(P: TransitionMatrix, c: np.ndarray) -> np.ndarray:
    """(A + e c')^-1 for A = I - P, C-ordered, by LAPACK's LU factorization
    and inversion at the workspace size it asks for.  It exists exactly when
    c' e != 0 and P has one stationary vector; else UpdateBreakdownError.

    Both LAPACK calls work in place on N', the Fortran-ordered view of the
    C-ordered N = A + e c', so no copy is made; the transpose of N'^-1 is
    N^-1 in N's own memory.  scipy.linalg is imported on first use, as in
    :func:`_add_outer_products`, which keeps it out of ``import krc``."""
    from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork

    N = -P.entries
    N.flat[::P.n + 1] += 1.0  # A = I - P
    N += c  # A + e c'
    lu, piv, info = dgetrf(N.T, overwrite_a=True)
    if not info:
        lwork = int(dgetri_lwork(P.n)[0])
        lu, info = dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
    if info:  # > 0: an exact zero pivot; < 0 cannot arise for a square N
        raise UpdateBreakdownError(
            "A + e c' is singular: c' e = 0, or P has no unique stationary vector"
        )
    return lu.T


def group_inverse(P: TransitionMatrix, pi: ScoreVector) -> GroupInverse:
    """Group inverse of I - P for an irreducible chain with stationary pi."""
    scores = pi.scores if isinstance(pi, ScoreVector) else np.asarray(pi, dtype=float)
    Ninv = _inverse(P, scores)
    Ninv -= scores
    return GroupInverse(Ninv)


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


def _add_outer_products(G: np.ndarray, X: np.ndarray, Y: np.ndarray) -> None:
    """G += sum_k outer(X[k], Y[k]) in place, as one BLAS pass over G."""
    from scipy.linalg.blas import dgemm

    if not (G.dtype == np.float64 and G.flags.c_contiguous):
        raise ValueError("group inverse entries must be a C-ordered float64 array")
    # G' is a Fortran-ordered view of G, which dgemm overwrites where it lies.
    dgemm(1.0, Y, X, beta=1.0, c=G.T, trans_a=1, overwrite_c=1)


def _fold(pi: np.ndarray, rows, v, wH: np.ndarray, Hv: np.ndarray, out=None):
    """Overwrite ``pi`` with its value for the chain P - v w', where
    v = v[0] e_rows[0] + v[1] e_rows[1] (the rows may repeat), ``wH`` is
    w' H and ``Hv`` is H v, and return the correction (x, y) with
    H_new = H + x y', y written into ``out`` when it is given.  Raises
    UpdateBreakdownError, with ``pi`` and ``out`` untouched, when
    1 + w' H v is numerically zero."""
    (r, s), (a, b) = rows, v
    eps = 1.0 + (wH.item(r) * a + wH.item(s) * b)
    if abs(eps) <= _BREAKDOWN_EPS:
        raise UpdateBreakdownError(
            f"update denominator 1 + w'A#v = {eps:.3e} too close to zero"
        )
    pi -= ((pi.item(r) * a + pi.item(s) * b) / eps) * wH
    return Hv, np.divide(wH, -eps, out=out)


def _projected(H: np.ndarray, pi: np.ndarray, anchor=0.0) -> GroupInverse:
    """A# = (I - e pi') H, written as H + e (anchor - pi' H)'.  An ``anchor``
    of pi_old' A#_old (zero for an exact pair) makes a fold that changed
    nothing change nothing."""
    return GroupInverse(H + (anchor - pi @ H))


def rank_one_update(
    pi_old, Ainv_old, delta: np.ndarray, i: int
) -> tuple[ScoreVector, GroupInverse]:
    """Closed-form stationary vector and group inverse after replacing row
    ``i`` of the chain by ``row - delta'`` (P - v w' with v = e_i, w = delta).

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

    pi_new = np.array(pi, dtype=float)
    H = np.array(G, dtype=np.float64, order="C")
    anchor = pi_new @ H
    x, y = _fold(pi_new, (i, i), (1.0, 0.0), delta @ H, H[:, i].copy())
    _add_outer_products(H, x[None], y[None])
    return ScoreVector(pi_new, t=getattr(pi_old, "t", None)), _projected(H, pi_new, anchor)


class OnlineState:
    """Running estimate at a fixed evaluation time t.

    Holds the per-pair kernel sums, the regularized chain, its stationary
    vector, and the group inverse (``Ainv``, read-only).  In the n x n
    ``pair_sums``, for i < j, ``[i, j]`` is the pair's kernel mass and
    ``[j, i]`` the mass on records item_j won.  ``apply_observation`` folds
    one record in with one fused pair update; every ``refresh_every``
    updates it checks the state's residuals, and everything is recomputed
    from the running sums only when they exceed rounding level (or on
    numerical breakdown, or a pi entry at or below 0).  ``tol`` is the
    seeding stationary solve's tolerance and bounds the residual
    max|pi' P - pi'| of every later refresh.

    Two counters report what the state did: ``checks``, the residual checks
    run, and ``refreshes``, the refreshes since seeding, whatever called
    them (a failed check, a breakdown, a pi entry at or below 0, or a direct
    call of :func:`refresh`).  Single-writer: mutate, and read ``Ainv``,
    from one thread.
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
        if not np.isfinite(t):
            raise ValueError(f"evaluation time must be finite, got {t}")
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if not tol >= 0:  # a NaN tol would fail every running refresh
            raise ValueError(f"tol must be non-negative, got {tol}")
        self.n = int(n)
        self.t = float(t)
        self.h = float(h)
        self.kernel = kernel
        self.sigma_n = default_teleport(n) if sigma_n is None else float(sigma_n)
        self.refresh_every = int(refresh_every)
        self.tol = float(tol)
        self.pair_sums = np.zeros((n, n)) if pair_sums is None else pair_sums
        self.updates_since_refresh = self.checks = 0
        # H = A# + e x' is _H plus _X[:_pending]' _Y[:_pending], the queue.
        self._X, self._Y = np.zeros((2, _PENDING, self.n))
        # The check's probe: the signs of a golden-ratio (Weyl) sequence, so
        # that it sees every column of H with weight 1.
        weyl = np.arange(self.n) * 0.6180339887498949 % 1.0
        self._probe = np.where(weyl < 0.5, 1.0, -1.0)
        self.P: TransitionMatrix
        self.pi: ScoreVector
        refresh(self)

    @property
    def Ainv(self) -> GroupInverse:
        """The group inverse of I - P, (I - e pi') H, once the queue has
        been written into H."""
        _flush(self)
        return _projected(self._H, self.pi.scores)

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

    The chain is the batch fit's, built by ``estimator._chain_stack`` from
    the running sums of the pairs above the diagonal as a stack of one;
    ``_value`` raises its gate entry, a ``sigma_n=0`` chain's
    ConnectivityError.  A seeding refresh solves it as the batch fit does,
    by ``stationary`` and ``group_inverse``.  A running
    state's refresh takes one inverse, H = (A + e pi_run')^-1 with pi_run
    its running vector, and pi' = pi_run' H, which is stationary whatever
    pi_run is (see the module docstring); a singular system raises
    UpdateBreakdownError, and a residual max|pi'P - pi'| above ``state.tol``
    ConvergenceError.  The state changes only once every step has
    succeeded, so a raised error leaves it as it was; a running refresh
    that succeeds adds one to ``state.refreshes``."""
    i, j = np.triu_indices(state.n, 1)
    sums = state.pair_sums
    (chain,), (gate,) = _chain_stack(
        state.n, i, j, [state.t], sums[i, j][None], sums[j, i][None], state.sigma_n
    )
    _value(gate)
    P = TransitionMatrix(chain)
    seeding = not hasattr(state, "pi")
    if seeding:  # the batch fit's solve, to the bit
        pi = stationary(P, tol=state.tol).scores
        H = group_inverse(P, pi).entries
    else:
        c = state.pi.scores
        H = _inverse(P, c)
        pi = c @ H
        res = float(np.max(np.abs(pi @ chain - pi)))
        if not res <= state.tol:
            raise ConvergenceError(
                f"refresh residual {res:.3e} above tol {state.tol:.3e}", residual=res
            )
    state.P, state.pi, state._H = P, ScoreVector(pi, t=state.t), H
    state._pending = state.updates_since_refresh = 0
    state.refreshes = 0 if seeding else state.refreshes + 1
    return state


def _check(state: OnlineState) -> bool:
    """Whether the state's residuals sit at rounding level: pi's,
    max|pi' P - pi'|, within ``_CHECK_SLACK`` n eps max pi, and the probe's,
    max|(I - P) A# z - (z - e pi' z)|, within ``_CHECK_SLACK`` n eps
    max|A# z|.  A# z = (I - e pi') (_H z + X' (Y z)) is read through the
    queue, which stays unwritten; only ``checks`` changes."""
    state.checks += 1
    P, pi, z = state.P.entries, state.pi.scores, state._probe
    k = state._pending
    Gz = state._H @ z
    if k:
        Gz += (state._Y[:k] @ z) @ state._X[:k]
    Gz -= pi @ Gz
    res_z = Gz - P @ Gz
    res_z -= z - pi @ z
    bound = _CHECK_SLACK * state.n * np.finfo(float).eps
    return bool(
        np.max(np.abs(pi @ P - pi)) <= bound * pi.max()
        and np.max(np.abs(res_z)) <= bound * np.max(np.abs(Gz))
    )


def _flush(state: OnlineState) -> None:
    """Write the queued corrections into H with one BLAS pass."""
    if k := state._pending:
        _add_outer_products(state._H, state._X[:k], state._Y[:k])
        state._pending = 0


def apply_observation(state: OnlineState, record) -> OnlineState:
    """Fold one comparison record into the running state.

    ``record`` is a ComparisonRecord or an (item_i, item_j, time, outcome)
    tuple, which is checked as a ComparisonRecord is.  Records whose kernel
    weight at the state's evaluation time is zero leave the state
    untouched.  Otherwise rows i and j of P move mass between their
    diagonal and their (i, j) / (j, i) entry: the change P - v w' with
    v = d_ij e_i - d_ji e_j and w = e_j - e_i, folded into the stationary
    vector in place and into H through the queue (``_fold``).  For a pair
    that already carries mass d_ji = -d_ij; the first in-window record of a
    pair also lifts the pair sum from its teleport floor, so both moves are
    computed directly.  If the record cannot be folded in, the state is
    left as it was and the error is raised.

    Every ``refresh_every`` folds the state checks its residuals (see the
    module docstring).  A check that passes resets ``updates_since_refresh``
    and changes nothing else; one that fails refreshes the state, as a pi
    entry at or below 0 does.  If that refresh fails, its error is raised
    with the record folded in: the sums, P and pi include it,
    ``updates_since_refresh`` stays at or above ``refresh_every``, and the
    next record folded checks and tries the refresh again.
    """
    if isinstance(record, tuple):
        if len(record) != 4:
            raise TypeError(f"a record tuple has 4 fields, got {len(record)}")
        i, j, t_k, y = record
        _check_record(i, j, t_k, y)
    else:
        i, j, t_k, y = record.item_i, record.item_j, record.time, record.outcome
    if i > j:
        i, j, y = j, i, 1 - y
    n = state.n
    if not (0 <= i and j < n):
        raise RosterError(f"record items ({i}, {j}) outside roster of size {n}")
    w = float(state.kernel.weight(state.t, t_k, state.h))
    if w == 0.0:
        return state

    # The scalar work is on Python floats, which numpy's 0-d arrays and
    # scalars would only slow down; the arithmetic is the same.
    sigma = state.sigma_n
    sums, P = state.pair_sums, state.P.entries
    old_den, old_num = sums.item(i, j), sums.item(j, i)
    den, num = old_den + w, old_num + w * y
    frac = num / den
    p_new_ij = (1.0 - sigma) * (frac / n) + sigma / n
    p_new_ji = (1.0 - sigma) * ((1.0 - frac) / n) + sigma / n
    d_ij = P.item(i, j) - p_new_ij
    d_ji = P.item(j, i) - p_new_ji

    # With prior mass the pair's off-diagonal sum is pinned, so row j's
    # entry must move exactly opposite to row i's.
    if old_den > 0.0 and abs(d_ji + d_ij) > _MIRROR_SLACK:
        raise RuntimeError(
            f"pair complement drift: {d_ji + d_ij:.3e} beyond slack"
        )
    sums[i, j], sums[j, i] = den, num

    # Rows i, j and columns i, j of H, read through the queue.  H v goes
    # straight into the next queue slot, which is not part of the state
    # until _pending counts it.
    H, k, X, Y = state._H, state._pending, state._X, state._Y
    wH = H[j] - H[i]
    Hv = np.multiply(H[:, i], d_ij, out=X[k])
    Hv -= H[:, j] * d_ji
    if k:
        wH += (X[:k, j] - X[:k, i]) @ Y[:k]
        Hv += (Y[:k, i] * d_ij - Y[:k, j] * d_ji) @ X[:k]
    try:
        _fold(state.pi.scores, (i, j), (d_ij, -d_ji), wH, Hv, out=Y[k])
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
    state._pending += 1
    if state._pending == _PENDING:
        _flush(state)
    state.updates_since_refresh += 1
    due = state.updates_since_refresh >= state.refresh_every
    if state.pi.scores.min() <= 0 or (due and not _check(state)):
        refresh(state)
    elif due:
        state.updates_since_refresh = 0
    return state
