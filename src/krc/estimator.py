"""Kernel-smoothed rank-centrality transition matrices and their stationary
distributions.

For items i != j the transition entry at evaluation time t is

    P[i, j] = (1/n) * sum_k y_ij(t_k) K_h(t, t_k) / sum_k K_h(t, t_k)

over the pair's observation times, with the diagonal absorbing the slack so
every row sums to one.  The chain encodes "i passes votes to whoever beats
it"; its stationary distribution is the score vector.  With the idealized
entries (1/n) * pi_j / (pi_i + pi_j) the chain is reversible and stationary
at pi itself, which is what makes the estimator consistent.

Every fit, the MLE baselines' included, runs one pass, :func:`_fits`: a
blocked kernel pass gives each time's per-pair sums, one grid chunk at a
time, its record blocks dealt to one thread per allowed CPU, each writing
its weight tiles in place into a cache-sized buffer of its own, and a
stack solver turns each chunk's sums into fits as one stack within the tile
budget.  The sums do not depend on the number of threads.  The chains'
stack solver is :func:`_solve_sums`: it builds the teleported chains with
:func:`_chain_stack`, as the online state's refresh does, and solves them
together.  The solver runs power iteration from the
uniform start, one batched matmul per sweep over the chains still
iterating in a cache-sized sub-stack, each chain leaving once it converges,
and a direct solve for a chain that stalls.
:func:`estimate_curve` is the pass over a grid, :func:`fit_scores` its
one-point case, and the walk-forward backtest its case masked to the
records strictly before each day; :func:`stationary` is the solver's
one-chain case.  The coverage experiment runs :func:`_solve_sums` on the
sums of many simulated datasets stacked together.
"""

from __future__ import annotations

import os
from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .data import ComparisonDataset
from .errors import ConnectivityError, ConvergenceError, EstimationError
from .kernels import Kernel

# Diagonal entries may come out negative by accumulated rounding only; a
# deficit beyond this is a logic error, not noise.
_DIAG_SLACK = 1e-12


@dataclass
class TransitionMatrix:
    """Row-stochastic comparison chain."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass
class ScoreVector:
    """Simplex-normalized item scores, optionally tagged with the
    evaluation time they belong to (None for static estimates), and the
    fit record of the solve that gave them: an MLE fit's ``MMInfo``, None
    for a chain's stationary vector."""

    scores: np.ndarray
    t: float | None = None
    info: object = None

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def default_teleport(n: int) -> float:
    """Default regularization weight sigma_n = 1/n."""
    return 1.0 / n


def _fill_diagonal(P: np.ndarray) -> None:
    """Set each chain's diagonal in ``P`` (..., n, n) to its row slack."""
    idx = np.arange(P.shape[-1])
    P[..., idx, idx] = 0.0
    diag = 1.0 - P.sum(axis=-1)
    if diag.size and np.min(diag) < -_DIAG_SLACK:
        raise RuntimeError(
            f"diagonal deficit {np.min(diag)} exceeds rounding slack"
        )
    np.clip(diag, 0.0, None, out=diag)
    P[..., idx, idx] = diag


def pair_fractions(
    dataset: ComparisonDataset, t: float, h: float, kernel: Kernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted win fraction for every pair with mass at (t, h).

    Returns (item_i, item_j, fraction) restricted to pairs whose kernel
    mass is positive; the fraction is the weighted share of outcomes item_j
    won.  This is the aggregate the weighted likelihood reads; it comes from
    the kernel pass that :func:`fit_scores` runs.
    """
    _, seg_i, seg_j = dataset.pair_segments()
    _, den, num, _ = next(_pair_sums(dataset, [t], h, kernel))
    mass = den[0] > 0.0
    if not mass.any():
        raise _no_mass(t, h, before=False)
    return seg_i[mass], seg_j[mass], num[0, mass] / den[0, mass]


def _no_mass(t: float, h: float, before: bool) -> EstimationError:
    if before:
        return EstimationError(f"no record with kernel mass before t={t}")
    return EstimationError(f"zero kernel mass for every observed pair at t={t}, h={h}")


# Residual bound of a stationary solve unless a caller sets it, and sweep limit.
_TOL = 1e-10
_MAX_ITER = 100_000

# Element budget of the work done together, 8 MiB of float64: it sizes the
# grid chunks and their (points x pairs) sums, and the stacks of chains (or
# MLE win matrices) built and solved together.
TILE_ELEMENTS = 1 << 20
# Element budget of one weight tile and of one power-iteration sub-stack,
# 1 MiB of float64, which a core's L2 cache holds; a smaller TILE_ELEMENTS
# caps it too.
CACHE_ELEMENTS = 1 << 17
# Grid points per weight tile when a chunk's records do not all fit one.
_TILE_ROWS = 8
# Threads of the kernel pass: one per CPU this process may run on, as each
# has its own L2 for its tiles.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_pool = None  # (its threads, the ThreadPoolExecutor), made on first use


def _pair_sums(
    dataset: ComparisonDataset, time_grid, h: float, kernel: Kernel | None,
    before: bool = False,
):
    """Yield (chunk, den, num, kept) over the grid, one grid chunk at a time.

    ``den`` and ``num`` are (chunk x pairs): each pair's kernel mass and the
    mass on records item_j won.  Grid points go in chunks of one solver stack
    (:func:`_stack_rows`), whose sums fit TILE_ELEMENTS as there are fewer
    pairs than n^2.  A chunk's records go in blocks that end on pair
    boundaries, and its weights in tiles of at most CACHE_ELEMENTS: a tile is
    a group of _TILE_ROWS chunk points (the whole chunk when its records all
    fit) by a block, and a pair longer than a block is a block alone, with as
    many points as fit (at least one).  The blocks are dealt in turn to
    _WORKERS threads (no more than there are blocks; one block runs in the
    calling thread), each writing its tiles in place into its own buffer and
    its blocks' outcomes, as floats, into one more (:func:`_sum_blocks`).
    Each sum is one ``np.add.reduceat`` over a pair's whole segment of a tile
    row, so it does not depend on the tiling nor on the workers.  With
    ``before`` a record weighs 0 at every point it is not strictly earlier
    than, and ``kept`` counts, per point, the records that weigh in (None
    otherwise).  A pair's records are time-sorted, so the masked ones are the
    tail of its segment.  ``kernel=None`` (only with ``before``) gives every
    record unit weight: pooled counts, at any time; with a kernel, a time
    that is not finite is a ValueError.  An error raised on a block is raised
    once every worker has finished the chunk: the first in block order.
    """
    grid = np.asarray(time_grid, dtype=float).ravel()
    if grid.size and kernel is not None and not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if kernel is not None and not np.isfinite(grid).all():
        raise ValueError(f"evaluation time must be finite, got {grid[~np.isfinite(grid)][0]}")
    if grid.size and dataset.n_records == 0:
        raise EstimationError("no comparison records to aggregate")
    starts = dataset.pair_segments()[0]
    bounds = np.append(starts, dataset.n_records)
    budget = min(TILE_ELEMENTS, CACHE_ELEMENTS)
    per_chunk = _stack_rows(dataset.n)
    for g in range(0, grid.size, per_chunk):
        chunk = grid[g:g + per_chunk]
        rows = min(chunk.size, max(_TILE_ROWS, budget // dataset.n_records))
        block = budget // rows
        ends = [0]  # the blocks' pair boundaries
        while ends[-1] < starts.size:
            s = ends[-1]
            ends.append(max(int(bounds.searchsorted(bounds[s] + block, "right")) - 1, s + 1))
        blocks = list(zip(range(len(ends) - 1), ends, ends[1:]))
        den, num = np.empty((2, chunk.size, starts.size))
        work = partial(_sum_blocks, dataset, bounds, chunk, rows, h, kernel, before, den, num)
        workers = min(_WORKERS, len(blocks))
        if workers == 1:
            results = [work(blocks)]
        else:
            pool = _executor()
            futures = [pool.submit(work, blocks[w::workers]) for w in range(workers)]
            wait(futures)
            results = [f.result() for f in futures]
        failed = [fail for _, fail in results if fail is not None]
        if failed:
            raise min(failed, key=lambda fail: fail[0])[1]
        kept = sum(k for k, _ in results) if before else None
        yield chunk, den, num, kept


def _sum_blocks(dataset, bounds, chunk, rows, h, kernel, before, den, num, blocks):
    """One worker's part of :func:`_pair_sums` on ``chunk``: the sums of its
    record ``blocks`` (index, first pair, end pair), written into those pairs'
    columns of ``den`` and ``num``.  Its tile buffer and outcome block are
    sized to its largest tile and block, and each block's time range is
    scanned once, for the Gaussian's floor test.  Returns its ``kept`` counts
    (None without ``before``) and None or, if a block raised, (that block's
    index, the error); the worker's later blocks are then not run."""
    budget = min(TILE_ELEMENTS, CACHE_ELEMENTS)
    sizes = [int(bounds[e] - bounds[s]) for _, s, e in blocks]
    steps = [min(rows, max(1, budget // k)) for k in sizes]  # fewer points for a long pair
    buf = np.empty(max(step * k for step, k in zip(steps, sizes)))
    won = np.empty(max(sizes))
    kept = np.zeros(chunk.size, dtype=np.int64) if before else None
    for (b, s, e), step in zip(blocks, steps):
        try:
            a = bounds[s]
            offsets = bounds[s:e] - a
            times, wins = dataset.times[a:bounds[e]], won[:bounds[e] - a]
            wins[:] = dataset.outcomes[a:bounds[e]]
            span = None if kernel is None else (times.min(), times.max())
            for r in range(0, chunk.size, step):
                points = chunk[r:r + step, None]
                out = buf[:points.size * times.size].reshape(points.size, -1)
                if before:
                    past = times < points
                    kept[r:r + step] += np.count_nonzero(past, axis=1)
                if kernel is None:
                    w = np.multiply(past, 1.0, out=out)
                else:
                    w = kernel.weight(points, times, h, out=out, t_k_span=span)
                    if before:
                        w *= past  # weights are finite, so a masked record adds 0
                np.add.reduceat(w, offsets, axis=1, out=den[r:r + step, s:e])
                w *= wins  # zero the records item_j lost
                np.add.reduceat(w, offsets, axis=1, out=num[r:r + step, s:e])
        except Exception as err:  # raised by _pair_sums once every worker is done
            return kept, (b, err)
    return kept, None


def _executor():
    """The pass's pool of _WORKERS threads, made on first use (its module is
    imported then, which keeps it out of ``import krc``).  Callers that race
    here may each make one; each uses its own, and the dropped one's threads
    end once its work is done."""
    global _pool
    from concurrent.futures.thread import ThreadPoolExecutor

    workers, pool = _pool or (0, None)
    if workers != _WORKERS:
        pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="krc-pair-sums")
        _pool = (_WORKERS, pool)
    return pool


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _strong_components(adj: np.ndarray) -> np.ndarray:
    """Strong-component labels (k, n) of each graph of the (k, n, n) boolean
    stack ``adj``, offset so that no two graphs share a label.

    Graphs go in sub-stacks of at most TILE_ELEMENTS edges (a denser graph
    is a sub-stack alone), each one csgraph call on the block-diagonal graph
    of its graphs, whose CSR arrays come in int32 from the per-node edge
    counts; the float64 edge weights csgraph reads are then the largest
    temporary, one tile.
    """
    k, n = adj.shape[:2]
    degree = np.count_nonzero(adj, axis=2)  # (k, n) out-edges per node
    ends = np.cumsum(degree.sum(axis=1))  # edges up to and including each graph
    labels = np.empty((k, n), dtype=np.int32)
    a = offset = 0
    while a < k:
        done = int(ends[a - 1]) if a else 0
        b = max(int(ends.searchsorted(done + TILE_ELEMENTS, "right")), a + 1)
        sub = adj[a:b]
        nodes = (b - a) * n
        indptr = np.zeros(nodes + 1, dtype=np.int32)
        np.cumsum(degree[a:b], out=indptr[1:], dtype=np.int32)
        heads = np.arange(nodes, dtype=np.int32).reshape(b - a, 1, n)
        heads = np.broadcast_to(heads, sub.shape)[sub]  # row-major, as CSR stores them
        graph = csr_matrix((np.ones(heads.size), heads, indptr), shape=(nodes, nodes))
        count, found = csgraph.connected_components(
            graph, directed=True, connection="strong"
        )
        labels[a:b] = found.reshape(b - a, n) + offset
        offset += count
        a = b
    return labels


def _chains(n: int, idx_i, idx_j, frac: np.ndarray, mass=None) -> np.ndarray:
    """Comparison chains (..., n, n) from per-pair win fractions (..., pairs).

    A pair outside ``mass`` (when given), like a pair absent from the index
    arrays, contributes nothing: its off-diagonal entries stay 0.
    """
    P = np.zeros(frac.shape[:-1] + (n, n))
    up, down = frac / n, (1.0 - frac) / n
    if mass is not None:
        up[~mass] = down[~mass] = 0.0
    P[..., idx_i, idx_j] = up
    P[..., idx_j, idx_i] = down
    _fill_diagonal(P)
    return P


def transition_from_fractions(
    n: int, idx_i: np.ndarray, idx_j: np.ndarray, frac: np.ndarray
) -> TransitionMatrix:
    """Assemble the comparison chain from per-pair win fractions.

    Pairs absent from the index arrays contribute nothing (their
    off-diagonal entries stay 0).
    """
    return TransitionMatrix(_chains(n, idx_i, idx_j, np.asarray(frac, dtype=float)))


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


def _teleport(entries: np.ndarray, sigma_n: float) -> np.ndarray:
    """Blend each chain of ``entries`` (..., n, n) with the uniform chain, in
    place, and return it."""
    if not 0.0 <= sigma_n < 1.0:
        raise ValueError(f"sigma_n must be in [0, 1), got {sigma_n}")
    entries *= 1.0 - sigma_n
    entries += sigma_n / entries.shape[-1]
    return entries


def stationary(
    P: TransitionMatrix, tol: float = _TOL, max_iter: int = _MAX_ITER
) -> ScoreVector:
    """Stationary distribution by power iteration with a dense fallback.

    Iterates pi' <- pi' P from the uniform start until the infinity-norm
    residual drops below ``tol``.  If the iteration stalls (slow geometric
    rate or max_iter reached) the rank-deficient linear system is solved
    directly with a normalization row.  A final residual above ``tol``
    raises ConvergenceError.  This is the one-chain case of
    :func:`_stationary_stack`, whose row :func:`_value` unwraps.
    """
    (pi,) = _stationary_stack(P.entries[None], tol, max_iter)
    return ScoreVector(_value(pi))


def _value(row, skip=()):
    """A stack row's value, None for an error of a class in ``skip``; any
    other error is raised.  The one place where a stack row is unwrapped."""
    if isinstance(row, skip):
        return None
    if isinstance(row, Exception):
        raise row
    return row


def _stationary_stack(M: np.ndarray, tol: float, max_iter: int) -> list:
    """Stationary vector of each chain in the (k, n, n) stack ``M``, or the
    ConvergenceError its solve raises, in order.

    The chains go to :func:`_power_iterate` in consecutive sub-stacks of at
    most CACHE_ELEMENTS entries (at least one chain each), so that a sweep
    reads them from a core's cache; no chain's result depends on the others.
    Callers keep the whole stack within TILE_ELEMENTS (see :func:`_stack_rows`).
    """
    step = max(1, min(TILE_ELEMENTS, CACHE_ELEMENTS) // M.shape[-1] ** 2)
    return [pi for a in range(0, len(M), step)
            for pi in _power_iterate(M[a:a + step], tol, max_iter)]


def _power_iterate(M: np.ndarray, tol: float, max_iter: int) -> list:
    """:func:`_stationary_stack` on one sub-stack ``M``.

    Every chain iterates pi' <- pi' P from the uniform start until the
    infinity-norm residual drops below ``tol``; the chains still iterating
    take one batched matmul per sweep, and a chain leaves them when it
    converges.  A chain whose iteration stalls (a sum that is not positive,
    or no halving of the residual over a 1,000-sweep window) or reaches
    ``max_iter`` is solved directly as the rank-deficient linear system with
    a normalization row; a final residual above ``tol`` is its
    ConvergenceError.
    """
    k, n = M.shape[:2]
    Ma = M
    pi = np.full((k, 1, n), 1.0 / n)
    last = np.full((k, 1, 1), np.inf)
    active = np.arange(k)
    out: list = [False] * k  # a chain's vector, or whether its iteration stalled
    check_every = 1000
    limit = np.asarray(tol)  # a 0-d array compares faster than a float
    with np.errstate(divide="ignore", invalid="ignore"):  # NaNs are caught
        for it in range(max_iter if k else 0):  # an empty stack would only spin
            nxt = pi @ Ma
            s = np.add.reduce(nxt, axis=-1, keepdims=True)
            nxt /= s
            res = np.maximum.reduce(abs(nxt - pi), axis=-1, keepdims=True)
            # A chain goes on while its residual is above tol and its sum
            # positive: the residual takes the sum's sign, and is NaN after
            # a zero or NaN sum (an infinite sum leaves a zero or NaN
            # iterate, so the chain leaves one sweep later).
            go = np.copysign(res, s) > limit
            if (it + 1) % check_every == 0:
                # No halving over a full window means the asymptotic rate is
                # too slow for iteration to be worthwhile.
                go &= res <= 0.5 * last
                last = res
            pi = nxt
            if np.count_nonzero(go) < active.size:
                go = go.ravel()
                for c in np.flatnonzero(~go):
                    converged = s.flat[c] > 0 and res.flat[c] <= tol
                    out[active[c]] = nxt[c, 0].copy() if converged else True
                active = active[go]
                if not active.size:
                    break
                # Drop the old copy of the active chains before gathering the
                # next from M, so a stack peaks at two stacks, not three.
                pi, last, Ma = pi[go], last[go], None
                Ma = M[active]
    for c, stalled in enumerate(out):
        if isinstance(stalled, np.ndarray):
            continue
        try:
            pi = out[c] = _direct_stationary(M[c])
        except ConvergenceError as err:
            out[c] = err
            continue
        res = float(np.max(np.abs(pi @ M[c] - pi)))
        if res > tol:
            out[c] = ConvergenceError(
                f"stationary solve residual {res:.3e} above tol {tol:.3e}"
                + (" (after stall fallback)" if stalled else ""),
                residual=res,
            )
    return out


def _stack_rows(n: int) -> int:
    """Chains of n items per stack, as many as fit TILE_ELEMENTS (at least
    one): the points of a grid chunk, whose chains are built and gated as one
    stack and solved in cache-sized sub-stacks (:func:`_stationary_stack`)."""
    return max(1, TILE_ELEMENTS // (n * n))


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


def _fits(
    dataset: ComparisonDataset, times, h: float, kernel: Kernel | None, solve,
    *args, before: bool = False,
):
    """Yield (kept, fit) for each time, in order: the one pass of every fit.

    ``fit`` is what the stack solver ``solve`` (:func:`_solve_sums` or
    ``baselines._mm_sums``) gives, on ``args``, for the per-pair sums at t.
    ``kept``, ``before`` and ``kernel=None`` are those of :func:`_pair_sums`.
    Each grid chunk's rows are one stack within TILE_ELEMENTS, so the memory
    does not grow with the number of times.
    """
    _, seg_i, seg_j = dataset.pair_segments()
    for chunk, den, num, kept in _pair_sums(dataset, times, h, kernel, before):
        fits = solve(dataset.n, seg_i, seg_j, chunk.tolist(), den, num, h, *args, before=before)
        for d, fit in enumerate(fits):
            yield None if kept is None else int(kept[d]), fit


def _fitted(*args, **kwargs) -> list:
    """The fits of :func:`_fits` on these arguments, in order, unwrapped by
    :func:`_value`: the first (in grid order) that failed raises its error,
    and no later grid chunk is computed."""
    return [_value(fit) for _, fit in _fits(*args, **kwargs)]


def _chain_stack(
    n: int, idx_i, idx_j, ts: list, den: np.ndarray, num: np.ndarray,
    sigma_n: float | None, before: bool = False,
) -> tuple[np.ndarray, list]:
    """The (len(ts), n, n) stack of comparison chains of the per-pair sums
    ``den`` and ``num`` over the pairs (idx_i, idx_j), teleported in place by
    ``sigma_n`` (None: the default 1/n), and the ``sigma_n=0`` gate's entry
    for each row: the ConnectivityError of a chain that is not strongly
    connected, as only then is the stationary vector unique (a share that
    rounds to 0 drops an edge), else None.  A pair without mass adds no edge.
    """
    sigma = default_teleport(n) if sigma_n is None else sigma_n
    with np.errstate(invalid="ignore"):  # 0/0 for a pair without mass
        P = _chains(n, idx_i, idx_j, num / den, den > 0.0)
    if sigma != 0.0:
        return _teleport(P, sigma), [None] * len(ts)
    labels = np.sort(_strong_components(P > 0.0), axis=1)
    parts = 1 + np.count_nonzero(np.diff(labels, axis=1), axis=1)
    return P, [
        ConnectivityError(
            f"sigma_n=0 chain {'before' if before else 'at'} t={t} is "
            f"not strongly connected ({p} components)"
        ) if p > 1 else None
        for t, p in zip(ts, parts.tolist())
    ]


def _solve_sums(
    n: int, idx_i, idx_j, ts: list, den: np.ndarray, num: np.ndarray, h: float,
    sigma_n: float | None, tol: float, before: bool = False,
    rescued: list | None = None,
) -> list:
    """A fit per row of the (len(ts) x pairs) per-pair sums ``den`` and
    ``num`` over the pairs (idx_i, idx_j).

    A row's fit is the ScoreVector, tagged with its time in ``ts``, of its
    chain from :func:`_chain_stack`, or the error that fit raises, the other
    rows being unaffected: EstimationError without mass, else the row's gate
    entry, a ConnectivityError for a ``sigma_n=0`` chain, or else
    ConvergenceError.  Given a ``rescued`` list, a gated chain is teleported
    by the default 1/n instead and solved with the others, and its row is
    appended to the list.  The rows' chains are solved as one stack; callers
    keep the stack within TILE_ELEMENTS (see :func:`_stack_rows`).
    """
    P, gates = _chain_stack(n, idx_i, idx_j, ts, den, num, sigma_n, before)
    mass = (den > 0.0).any(axis=1).tolist()
    if rescued is not None:  # the rescued rows pass the gate
        gated = [d for d, gate in enumerate(gates) if gate is not None and mass[d]]
        P[gated] = _teleport(P[gated], default_teleport(n))
        rescued.extend(gated)
        gates = [None] * len(ts)
    fits = [gate if m else _no_mass(t, h, before) for t, m, gate in zip(ts, mass, gates)]
    solve = [d for d, fit in enumerate(fits) if fit is None]
    if len(solve) < len(ts):
        P = P[solve]
    for d, pi in zip(solve, _stationary_stack(P, tol, _MAX_ITER)):
        fits[d] = pi if isinstance(pi, ConvergenceError) else ScoreVector(pi, t=ts[d])
    return fits


def fit_scores(
    dataset: ComparisonDataset,
    t: float,
    h: float,
    kernel: Kernel,
    sigma_n: float | None = None,
    tol: float = _TOL,
) -> ScoreVector:
    """Build, regularize, and solve in one step; the everyday entry point.

    ``sigma_n=None`` means the default teleport 1/n; pass 0.0 explicitly to
    disable regularization, and a chain that is then not strongly connected
    raises ConnectivityError.  This is the one-point case of
    :func:`estimate_curve`.
    """
    (fit,) = estimate_curve(dataset, [t], h, kernel, sigma_n, tol)
    return fit


def estimate_curve(
    dataset: ComparisonDataset,
    time_grid,
    h: float,
    kernel: Kernel,
    sigma_n: float | None = None,
    tol: float = _TOL,
) -> list[ScoreVector]:
    """Score vectors along a time grid, one per point in the given order.

    Per-pair kernel sums come from one blocked pass per grid chunk, and the
    chunk's chains are solved as stacks; each point's scores are those
    :func:`fit_scores` gives there.  The first point (in grid order) whose
    fit fails raises its error.
    """
    return _fitted(dataset, time_grid, h, kernel, _solve_sums, sigma_n, tol)
