"""Transition construction, stationary solves, score curves."""

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from krc import estimator
from krc.data import ComparisonDataset
from krc.errors import ConnectivityError, ConvergenceError, EstimationError
from krc.estimator import (
    ScoreVector,
    TransitionMatrix,
    _chain_stack,
    _teleport,
    _value,
    build_ideal_transition,
    default_teleport,
    estimate_curve,
    fit_scores,
    pair_fractions,
    stationary,
    transition_from_fractions,
)
from krc.baselines import wmle
from krc.inference import plug_in_alpha
from krc.kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN, WEIGHT_FLOOR, Kernel
from krc.simulate import SimConfig, generate


def teleported_chain(rng, n, sigma=0.1):
    """Random irreducible row-stochastic matrix."""
    M = rng.uniform(0.0, 1.0, size=(n, n))
    M /= M.sum(axis=1, keepdims=True)
    return TransitionMatrix((1 - sigma) * M + sigma / n)


def eig_stationary(M):
    """Left Perron vector via dense eigendecomposition."""
    vals, vecs = np.linalg.eig(M.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.abs(v)
    return v / v.sum()


# -- transition construction -----------------------------------------------


def test_balanced_two_item_chain():
    # equal wins each way, flat weights: fraction 1/2, entries 1/4
    ii = np.zeros(4, dtype=int)
    jj = np.ones(4, dtype=int)
    tt = np.array([0.2, 0.4, 0.6, 0.8])
    yy = np.array([1, 0, 1, 0])
    ds = ComparisonDataset(2, ii, jj, tt, yy)
    P = transition_from_fractions(ds.n, *pair_fractions(ds, 0.5, 10.0, BOXCAR))
    assert P.entries[0, 1] == 0.25
    assert P.entries[1, 0] == 0.25
    assert P.entries[0, 0] == 0.75
    assert P.entries[1, 1] == 0.75


def test_pair_sum_identity():
    ds, _ = generate(SimConfig(n=6, m=12, seed=5))
    P = transition_from_fractions(ds.n, *pair_fractions(ds, 0.5, 0.2, GAUSSIAN)).entries
    n = ds.n
    for i in range(n):
        for j in range(i + 1, n):
            if P[i, j] > 0 or P[j, i] > 0:
                assert P[i, j] + P[j, i] == pytest.approx(1.0 / n, abs=1e-15)
    # a valid comparison chain: no negative entry, rows summing to one, and
    # no off-diagonal entry above 1/n
    assert np.min(P) >= -1e-12
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(P[~np.eye(n, dtype=bool)]) <= 1.0 / n + 1e-12


def test_transition_rows_stochastic():
    ds, _ = generate(SimConfig(n=5, m=10, seed=1))
    P = transition_from_fractions(ds.n, *pair_fractions(ds, 0.3, 0.15, GAUSSIAN))
    rows = P.entries.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-14)
    assert np.min(P.entries) >= 0.0


def test_unobserved_pair_leaves_zero_entries():
    ii = np.array([0, 1])
    jj = np.array([1, 2])
    tt = np.array([0.5, 0.5])
    yy = np.array([1, 0])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    P = transition_from_fractions(ds.n, *pair_fractions(ds, 0.5, 0.2, GAUSSIAN)).entries
    assert P[0, 2] == 0.0 and P[2, 0] == 0.0


def test_zero_mass_everywhere_raises():
    ii = np.array([0])
    jj = np.array([1])
    tt = np.array([0.0])
    yy = np.array([1])
    ds = ComparisonDataset(2, ii, jj, tt, yy)
    with pytest.raises(EstimationError, match="zero kernel mass"):
        transition_from_fractions(ds.n, *pair_fractions(ds, 0.9, 0.01, BOXCAR))


def test_raw_chain_with_rounded_share_raises():
    # Item 1 beats item 0 twice at t=0.5, item 0 wins once at t=0.59.  At
    # t=0.5 and h=0.01 the record graph is strongly connected, but item 0's
    # share 1 - num/den rounds to 0, so the raw chain has no edge into item 0.
    ds = ComparisonDataset(2, [0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.59], [1, 1, 0])
    with pytest.raises(ConnectivityError, match="not strongly connected"):
        fit_scores(ds, 0.5, 0.01, GAUSSIAN, sigma_n=0.0)
    with pytest.raises(ConnectivityError, match="t=0.5 "):
        estimate_curve(ds, [0.5, 0.55], 0.01, GAUSSIAN, sigma_n=0.0)
    fits = [fit for _, fit in estimator._fits(ds, [0.5, 0.55], 0.01, GAUSSIAN,
                                              estimator._solve_sums, 0.0, 1e-10)]
    assert isinstance(fits[0], ConnectivityError)
    assert fits[1].t == 0.55 and np.min(fits[1].scores) > 0.0
    teleported = fit_scores(ds, 0.5, 0.01, GAUSSIAN)
    assert np.min(teleported.scores) > 0.0


def test_ideal_chain_frozen_entries():
    pi = np.array([0.5, 0.3, 0.2])
    P = build_ideal_transition(pi).entries
    assert P[0, 1] == pytest.approx(0.125, abs=1e-16)
    assert P[0, 2] == pytest.approx(0.2 / (0.7 * 3), abs=1e-15)
    for i in range(3):
        for j in range(3):
            if i != j:
                # detailed balance pi_i P_ij = pi_j P_ji
                assert pi[i] * P[i, j] == pytest.approx(pi[j] * P[j, i], abs=1e-15)


def test_ideal_chain_stationary_is_truth():
    rng = np.random.default_rng(11)
    for n in (3, 7, 15):
        pi = rng.uniform(1.0, 3.0, size=n)
        pi /= pi.sum()
        P = build_ideal_transition(pi)
        sv = stationary(P, tol=1e-13)
        assert np.max(np.abs(sv.scores - pi)) < 1e-12


def test_ideal_chain_rejects_bad_scores():
    with pytest.raises(ValueError):
        build_ideal_transition(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        build_ideal_transition(np.array([0.7, -0.1, 0.4]))


# -- regularization --------------------------------------------------------


def test_regularize_entries_and_composition():
    # _teleport works in place, so each call gets a copy
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    R = _teleport(P.copy(), 0.1)
    assert R[0, 1] == pytest.approx(0.9 * 0.1 + 0.05, abs=1e-16)
    # composing two teleports multiplies the survival factors
    R2 = _teleport(R.copy(), 0.2)
    np.testing.assert_allclose(R2, _teleport(P.copy(), 1 - 0.9 * 0.8), rtol=0, atol=1e-15)
    same = _teleport(P.copy(), 0.0)
    assert np.array_equal(same, P)
    with pytest.raises(ValueError):
        _teleport(P.copy(), 1.0)
    with pytest.raises(ValueError):
        _teleport(P.copy(), -0.1)


def test_default_teleport():
    assert default_teleport(4) == 0.25


# -- stationary solves -----------------------------------------------------


def test_stationary_two_state_frozen():
    P = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    sv = stationary(P, tol=1e-13)
    assert np.max(np.abs(sv.scores - [2 / 3, 1 / 3])) < 1e-12
    assert np.max(np.abs(sv.scores @ P.entries - sv.scores)) < 1e-13


def test_stationary_matches_eig_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12, 30):
        P = teleported_chain(rng, n)
        sv = stationary(P, tol=1e-12)
        oracle = eig_stationary(P.entries)
        assert np.max(np.abs(sv.scores - oracle)) < 1e-10


def test_stationary_periodic_chain_uses_fallback():
    # period-2 structure never settles under power iteration
    M = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])
    sv = stationary(TransitionMatrix(M), tol=1e-12)
    assert np.max(np.abs(sv.scores - [0.15, 0.35, 0.5])) < 1e-12


def test_stationary_fallback_on_tiny_iteration_budget():
    rng = np.random.default_rng(9)
    P = teleported_chain(rng, 8)
    sv = stationary(P, tol=1e-12, max_iter=1)
    oracle = eig_stationary(P.entries)
    assert np.max(np.abs(sv.scores - oracle)) < 1e-10


def test_stationary_singular_system_uses_least_squares(monkeypatch):
    # Two absorbing states make the normalized system singular, so the
    # direct solve falls back to least squares: its minimum-norm solution
    # splits the mass evenly between them.
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    P = TransitionMatrix(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    sv = stationary(P, max_iter=1)
    assert len(calls) == 1
    np.testing.assert_allclose(sv.scores, [0.5, 0.0, 0.5], rtol=0, atol=1e-15)


# -- the stacked solver ----------------------------------------------------


def reference_stationary(
    P: TransitionMatrix, tol: float = 1e-10, max_iter: int = 100_000
) -> ScoreVector:
    """The single-chain solver that the stacked one replaced, verbatim."""
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
    pi = estimator._direct_stationary(M)
    sv = ScoreVector(pi)
    res = float(np.max(np.abs(pi @ M - pi)))
    if res > tol:
        raise ConvergenceError(
            f"stationary solve residual {res:.3e} above tol {tol:.3e}"
            + (" (after stall fallback)" if stalled else ""),
            residual=res,
        )
    return sv


PERIODIC = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])


def lazy_walk(n, stay):
    """A walk on a path that stays put with probability ``stay`` and else
    steps up (0.7) or down (0.3), held at the ends; the closer ``stay`` is
    to 1, the more sweeps power iteration needs."""
    M = stay * np.eye(n)
    up, down = np.arange(n - 1), np.arange(1, n)
    M[up, up + 1] = 0.7 * (1.0 - stay)
    M[down, down - 1] = 0.3 * (1.0 - stay)
    M[np.arange(n), np.arange(n)] += 1.0 - M.sum(axis=1)
    return TransitionMatrix(M)


def _solver_fixtures():
    """(label, chain, tol, max_iter): the chains of the tests above."""
    rng = np.random.default_rng(3)
    cases = [(f"teleported-{n}", teleported_chain(rng, n), 1e-12, 100_000)
             for n in (2, 5, 12, 30)]
    cases += [
        ("two-state", TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]])), 1e-13,
         100_000),
        ("periodic", TransitionMatrix(PERIODIC), 1e-12, 100_000),
        ("tiny-budget", teleported_chain(np.random.default_rng(9), 8), 1e-12, 1),
        ("ideal", build_ideal_transition(np.array([0.5, 0.3, 0.2])), 1e-13, 100_000),
        ("slow-walk", lazy_walk(6, 0.99), 1e-10, 100_000),
        ("default-tol", teleported_chain(np.random.default_rng(4), 10), 1e-10, 100_000),
    ]
    big = np.random.default_rng(10)
    cases += [(f"large-{n}", teleported_chain(big, n, sigma=1.0 / n), 1e-10, 100_000)
              for n in (100, 500)]
    return cases


SOLVER_FIXTURES = _solver_fixtures()


@pytest.mark.parametrize(
    "label,P,tol,max_iter", SOLVER_FIXTURES, ids=[c[0] for c in SOLVER_FIXTURES]
)
def test_one_chain_solve_is_bitwise_the_reference(label, P, tol, max_iter):
    ref = reference_stationary(P, tol=tol, max_iter=max_iter).scores
    assert np.array_equal(stationary(P, tol=tol, max_iter=max_iter).scores, ref)


def fallback_spy(monkeypatch):
    """Record the chains that reach the direct solve."""
    seen = []
    real = estimator._direct_stationary

    def spy(M):
        seen.append(M.copy())
        return real(M)

    monkeypatch.setattr(estimator, "_direct_stationary", spy)
    return seen


def test_empty_stack_takes_no_sweep():
    # A grid chunk whose fits all fail before the solve leaves an empty stack;
    # sweeping it until max_iter ran a million sweeps of nothing.
    start = time.perf_counter()
    assert estimator._stationary_stack(np.empty((0, 3, 3)), 1e-10, 10**6) == []
    assert time.perf_counter() - start < 1.0


def test_stack_falls_back_only_for_the_chains_that_stall(monkeypatch):
    rng = np.random.default_rng(5)
    regular = [teleported_chain(rng, 3) for _ in range(3)]
    chains = regular[:2] + [TransitionMatrix(PERIODIC)] + regular[2:]
    refs = [reference_stationary(P, tol=1e-12).scores for P in chains]
    seen = fallback_spy(monkeypatch)
    out = estimator._stationary_stack(
        np.stack([P.entries for P in chains]), 1e-12, 100_000
    )
    assert len(seen) == 1 and np.array_equal(seen[0], PERIODIC)
    for pi, ref in zip(out, refs):
        assert np.array_equal(pi, ref)


def test_stack_falls_back_for_the_chains_out_of_iterations(monkeypatch):
    # The slow walk needs far more than 50 sweeps, the teleported chains
    # fewer; at max_iter=1 every chain runs out.
    rng = np.random.default_rng(6)
    fast = [teleported_chain(rng, 6, sigma=0.5) for _ in range(3)]
    slow = lazy_walk(6, 0.99)
    chains = [fast[0], slow, fast[1], fast[2]]
    for max_iter, n_fallbacks in ((50, 1), (1, 4)):
        refs = [reference_stationary(P, max_iter=max_iter).scores for P in chains]
        seen = fallback_spy(monkeypatch)
        out = estimator._stationary_stack(
            np.stack([P.entries for P in chains]), 1e-10, max_iter
        )
        assert len(seen) == n_fallbacks
        if n_fallbacks == 1:
            assert np.array_equal(seen[0], slow.entries)
        for pi, ref in zip(out, refs):
            assert np.array_equal(pi, ref)


def test_stack_peaks_at_two_stacks_while_chains_leave():
    # Lazy chains (1 - s) I + s R converge in about 25 / s sweeps, so the
    # 100 chains leave the iteration over many sweeps, one compaction each.
    rng = np.random.default_rng(8)
    M = np.stack([
        (1 - s) * np.eye(40) + s * teleported_chain(rng, 40, sigma=0.5).entries
        for s in np.linspace(0.05, 1.0, 100)
    ])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = estimator._stationary_stack(M, 1e-10, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(pi, np.ndarray) for pi in out)
    assert peak - entry <= 1.5 * M.nbytes


@pytest.mark.parametrize("kernel, before", [(GAUSSIAN, False), (GAUSSIAN, True), (None, True)])
def test_pair_sums_frees_its_weight_tile_while_the_caller_works(kernel, before):
    ds, _ = generate(SimConfig(n=6, m=200, seed=1))
    grid = np.linspace(0.01, 0.99, 50)
    tile = grid.size * ds.n_records * 8  # bytes of the chunk's one weight buffer
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sums = estimator._pair_sums(ds, grid, 0.1, kernel, before)
        chunk, den, num, kept = next(sums)  # the generator stays open
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert chunk.size == grid.size and den.shape == (grid.size, 15)
    assert held < tile / 10


@pytest.mark.parametrize("bad", ["zero", "negative-sum"])
def test_non_convergent_chain_fails_alone(bad):
    # A zero chain has sum 0, -I a negative sum that still normalizes to a
    # fixed point; both must stall and fail the residual check, as before.
    rng = np.random.default_rng(7)
    M = np.zeros((4, 4)) if bad == "zero" else -np.eye(4)
    chains = [teleported_chain(rng, 4), TransitionMatrix(M), teleported_chain(rng, 4)]
    with pytest.raises(ConvergenceError) as ref_err:
        reference_stationary(chains[1])
    out = estimator._stationary_stack(
        np.stack([P.entries for P in chains]), 1e-10, 100_000
    )
    assert isinstance(out[1], ConvergenceError)
    assert str(out[1]) == str(ref_err.value)
    with pytest.raises(ConvergenceError, match="after stall fallback"):
        stationary(chains[1])
    for k in (0, 2):
        assert np.array_equal(out[k], reference_stationary(chains[k]).scores)


def test_stack_solves_in_sub_stacks_each_row_its_lone_solve(monkeypatch):
    # Sub-stacks of two 3-item chains: the periodic chain stalls and takes the
    # direct solve in the first, and the zero chain's ConvergenceError is in
    # the third; every row is its one-chain solve's, in order.
    rng = np.random.default_rng(11)
    t0, t1, t2, t3, t4 = (teleported_chain(rng, 3) for _ in range(5))
    chains = [t0, TransitionMatrix(PERIODIC), t1, t2, t3, TransitionMatrix(np.zeros((3, 3))), t4]
    refs = []
    for P in chains:
        try:
            refs.append(stationary(P).scores)
        except ConvergenceError as err:
            refs.append(err)
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 2 * 9)
    sizes = []
    real = estimator._power_iterate

    def spy(M, tol, max_iter):
        sizes.append(M.shape[0])
        return real(M, tol, max_iter)

    monkeypatch.setattr(estimator, "_power_iterate", spy)
    seen = fallback_spy(monkeypatch)
    out = estimator._stationary_stack(np.stack([P.entries for P in chains]), 1e-10, 100_000)
    assert sizes == [2, 2, 2, 1] and len(seen) == 2
    assert len(out) == len(refs)
    for got, ref in zip(out, refs):
        if isinstance(ref, ConvergenceError):
            assert type(got) is ConvergenceError and str(got) == str(ref)
        else:
            assert np.array_equal(got, ref)
    assert isinstance(out[5], ConvergenceError)


def test_value_unwraps_a_stack_row():
    fit = ScoreVector(np.array([0.5, 0.5]))
    assert _value(fit) is fit and _value(fit, (EstimationError,)) is fit
    assert _value(None) is None  # a gate entry that passed
    assert _value(EstimationError("no mass"), (EstimationError, ConnectivityError)) is None
    err = ConvergenceError("stalled")
    for skip in ((), (EstimationError, ConnectivityError)):
        with pytest.raises(ConvergenceError) as raised:
            _value(err, skip)
        assert raised.value is err


def test_chain_stack_gives_one_gate_entry_per_row():
    # Item 1 wins half, all or none of the pair's mass: only the first chain
    # has edges both ways.  A teleported stack passes every row.
    sums = np.array([[2.0], [2.0], [2.0]]), np.array([[1.0], [2.0], [0.0]])
    pair, ts = (np.array([0]), np.array([1])), [0.1, 0.2, 0.3]
    P, gates = _chain_stack(2, *pair, ts, *sums, 0.0, before=True)
    assert P.shape == (3, 2, 2) and len(gates) == 3
    assert gates[0] is None
    for gate, t in zip(gates[1:], ts[1:]):
        assert isinstance(gate, ConnectivityError)
        assert str(gate) == f"sigma_n=0 chain before t={t} is not strongly connected (2 components)"
    assert _chain_stack(2, *pair, ts, *sums, None)[1] == [None] * 3


# -- end-to-end fits -------------------------------------------------------


def test_fit_scores_simplex_and_tag():
    ds, _ = generate(SimConfig(n=5, m=20, seed=2))
    sv = fit_scores(ds, 0.4, 0.2, GAUSSIAN)
    assert sv.t == 0.4
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.min(sv.scores) > 0.0


def test_fit_scores_custom_sigma():
    ds, _ = generate(SimConfig(n=5, m=20, seed=2))
    a = fit_scores(ds, 0.4, 0.2, GAUSSIAN, sigma_n=0.0)
    b = fit_scores(ds, 0.4, 0.2, GAUSSIAN, sigma_n=0.3)
    assert not np.allclose(a.scores, b.scores)


def test_estimate_curve_matches_pointwise():
    ds, _ = generate(SimConfig(n=4, m=15, seed=8))
    grid = np.array([0.25, 0.5, 0.75])
    curve = estimate_curve(ds, grid, 0.25, GAUSSIAN)
    assert len(curve) == 3
    for sv, t in zip(curve, grid):
        lone = fit_scores(ds, float(t), 0.25, GAUSSIAN)
        assert sv.t == t
        assert np.array_equal(sv.scores, lone.scores)


REFERENCE_PROFILES = {
    "gaussian": lambda u: np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi),
    "epanechnikov": lambda u: np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0),
    "boxcar": lambda u: np.where(np.abs(u) <= 1.0, 0.5, 0.0),
}


def reference_sums(ds, t, h, kernel, before=False):
    """One point's per-pair (den, num) as computed before blocking: a kernel
    pass over the whole flat time column, written from the kernel formulas,
    then segment sums; with ``before`` only records strictly before t."""
    w = REFERENCE_PROFILES[kernel.family]((t - ds.times) / h)
    w = np.where((w < WEIGHT_FLOOR) | (before & (ds.times >= t)), 0.0, w)
    starts = ds.pair_segments()[0]
    den = np.add.reduceat(w, starts)
    num = np.add.reduceat(np.where(ds.outcomes == 1, w, 0.0), starts)
    return den, num


def reference_fractions(ds, t, h, kernel):
    """One point's fractions from :func:`reference_sums`."""
    den, num = reference_sums(ds, t, h, kernel)
    _, seg_i, seg_j = ds.pair_segments()
    mass = den > 0.0
    return seg_i[mass], seg_j[mass], num[mass] / den[mass]


def ragged_dataset(seed=3):
    """Six items, pairs with 0 to 9 records each, times in [0, 1]."""
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(6, 1)
    counts = rng.integers(0, 10, size=ii.size)
    counts[0] = 1
    tt = rng.uniform(0.0, 1.0, size=counts.sum())
    yy = rng.integers(0, 2, size=counts.sum())
    return ComparisonDataset(6, np.repeat(ii, counts), np.repeat(jj, counts), tt, yy)


@pytest.mark.parametrize("budget", [None, 1, 24, 64, 72])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV, BOXCAR])
def test_batched_curve_matches_pointwise_reference(monkeypatch, kernel, budget):
    # An unsorted grid with a repeated point.  Small budgets make several
    # grid chunks and record blocks, and a block of a single segment longer
    # than the budget; None keeps the module's budget (one block).
    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    ds = ragged_dataset()
    grid = np.array([0.7, 0.1, 0.45, 0.1, 0.95, 0.3, 0.55])
    h = 0.2
    curve = estimate_curve(ds, grid, h, kernel)
    assert [sv.t for sv in curve] == grid.tolist()
    sigma = default_teleport(ds.n)
    for sv, t in zip(curve, grid):
        # The mass pattern is the reference's bitwise; the fractions are
        # within the Gaussian's rounding bound (the compact kernels' bitwise).
        ref = reference_fractions(ds, t, h, kernel)
        got = pair_fractions(ds, t, h, kernel)
        for a, b in zip(got[:2], ref[:2]):
            assert np.array_equal(a, b)
        assert np.allclose(got[2], ref[2], rtol=1e-12, atol=0.0)
        if kernel is not GAUSSIAN:
            assert np.array_equal(got[2], ref[2])
        P = TransitionMatrix(_teleport(transition_from_fractions(ds.n, *got).entries, sigma))
        assert np.array_equal(sv.scores, stationary(P).scores)
        P = TransitionMatrix(_teleport(transition_from_fractions(ds.n, *ref).entries, sigma))
        assert np.max(np.abs(sv.scores - stationary(P).scores)) <= 1e-12
        assert np.array_equal(sv.scores, fit_scores(ds, t, h, kernel).scores)


def test_small_budget_splits_grid_and_records(monkeypatch):
    # Guard for the test above: small budgets do split the pass.  Grid chunks
    # are stacks of four 6-item chains (4 + 3 points), and weight tiles hold
    # 12 weights, so a tile takes the whole chunk over a block of 3 or 4
    # records or, on a longer pair, fewer of its points.
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 4 * 36)
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 12)
    grid = np.linspace(0.1, 0.9, 7)
    tiles = []
    real = Kernel.weight

    def spy(self, t, t_k, h, out=None, **kw):
        chunk = int(np.searchsorted(grid, t[0, 0])) // 4
        tiles.append((chunk, np.shape(t)[0], np.size(t_k), out.base))  # every tile fits
        return real(self, t, t_k, h, out=out, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    ds = ragged_dataset()
    estimate_curve(ds, grid, 0.2, GAUSSIAN)
    assert {c for c, *_ in tiles} == {0, 1}  # two grid chunks
    assert any(r < (4, 3)[c] for c, r, *_ in tiles)  # a tile takes part of a chunk
    assert max(k for *_, k, _ in tiles) < ds.n_records  # records are split into blocks
    assert sum(r * k for _, r, k, _ in tiles) == 7 * ds.n_records  # each weight once
    for c in (0, 1):  # one buffer per chunk
        assert len({id(base) for cc, *_, base in tiles if cc == c}) == 1
    assert tiles[0][3] is not tiles[-1][3]


def test_small_budget_takes_one_buffer_per_worker_and_chunk(monkeypatch):
    # The test above on two workers.  A chunk's blocks are dealt to them in
    # turn, and each worker writes all its tiles into one buffer of its own;
    # the calling thread runs share 0, the chunk's even blocks.
    monkeypatch.setattr(estimator, "_WORKERS", 2)
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 4 * 36)
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 12)
    grid = np.linspace(0.1, 0.9, 7)
    tiles = []
    real = Kernel.weight

    def spy(self, t, t_k, h, out=None, **kw):
        chunk = int(np.searchsorted(grid, t[0, 0])) // 4
        block = t_k.__array_interface__["data"][0]  # where its records start
        tiles.append((chunk, block, np.shape(t)[0] * np.size(t_k), out.base,
                      threading.get_ident()))
        return real(self, t, t_k, h, out=out, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    ds = ragged_dataset()
    estimate_curve(ds, grid, 0.2, GAUSSIAN)
    assert sum(size for _, _, size, *_ in tiles) == 7 * ds.n_records  # each weight once
    caller = {(c, block) for c, block, *_, thread in tiles if thread == threading.get_ident()}
    assert caller == {(c, block) for c in (0, 1)
                      for block in sorted({b for cc, b, *_ in tiles if cc == c})[::2]}
    for c in (0, 1):
        buffer = {}  # each block's buffer, its tiles' all the same
        for cc, block, _, base, _ in tiles:
            if cc == c:
                assert buffer.setdefault(block, base) is base
        bases = [buffer[block] for block in sorted(buffer)]
        assert len(bases) > 2 and bases[0] is not bases[1]
        assert all(base is bases[b % 2] for b, base in enumerate(bases))


@pytest.mark.parametrize("budget", [None, 1, 24, 72])
@pytest.mark.parametrize("before", [False, True])
@pytest.mark.parametrize("h", [0.002, 0.01, 0.2, 10.0])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV, BOXCAR])
def test_pair_sums_match_the_reference_pass(monkeypatch, kernel, h, before, budget):
    # The blocked in-place pass against the flat one written from the
    # formulas: the mass pattern bitwise, the sums to rounding.  The grid
    # reaches outside the records' [0, 1], so narrow bandwidths leave pairs
    # and whole points without mass.
    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    grid = np.array([-0.3, 0.0, 0.1, 0.45, 0.5, 0.77, 1.0, 1.4])
    for seed in (3, 4):
        ds = ragged_dataset(seed)
        row = 0
        for chunk, den, num, _ in estimator._pair_sums(ds, grid, h, kernel, before):
            for d, t in enumerate(chunk):
                ref_den, ref_num = reference_sums(ds, t, h, kernel, before)
                assert np.array_equal(den[d] > 0.0, ref_den > 0.0)
                assert np.all(np.abs(den[d] - ref_den) <= 1e-12 * ref_den)
                assert np.all(np.abs(num[d] - ref_num) <= 1e-12 * ref_num)
            row += chunk.size
        assert row == grid.size


@pytest.mark.parametrize("budget", [1, None])
def test_pair_sums_at_the_gaussian_floor_point(monkeypatch, budget):
    # Records 37.0h and 37.3h from t, either side of the floor point |u| of
    # about 37.14.  A budget of 1 puts each pair in a block of its own, so
    # the 37.0h block's range puts every |u| below the floor point and its
    # floor pass is skipped; the default budget puts both in one block,
    # which takes the pass.  Either way each mass is the lone record's weight.
    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    t, h = 0.5, 0.01
    ds = ComparisonDataset(3, [0, 0], [1, 2], [t + 37.0 * h, t + 37.3 * h], [1, 0])
    (_, den, num, _), = estimator._pair_sums(ds, [t], h, GAUSSIAN)
    near, far = (GAUSSIAN.weight(t, float(tk), h) for tk in ds.times)
    assert near >= WEIGHT_FLOOR and far == 0.0
    assert den[0].tolist() == [near, far] and num[0].tolist() == [near, 0.0]


def long_pair_dataset():
    """Five items whose pairs hold 1 to 150 records, times in [0, 1]."""
    rng = np.random.default_rng(12)
    ii, jj = np.triu_indices(5, 1)
    counts = np.array([1, 3, 5, 8, 9, 20, 40, 70, 150, 2])
    tt = rng.uniform(0.0, 1.0, size=counts.sum())
    yy = rng.integers(0, 2, size=counts.sum())
    return ComparisonDataset(5, np.repeat(ii, counts), np.repeat(jj, counts), tt, yy)


@pytest.mark.parametrize("kernel, before", [
    (GAUSSIAN, False), (GAUSSIAN, True), (EPANECHNIKOV, False), (EPANECHNIKOV, True),
    (BOXCAR, False), (BOXCAR, True), (None, True),
])
def test_long_pairs_take_fewer_tile_rows_and_the_same_sums(monkeypatch, kernel, before):
    # With 64-weight tiles a block holds 8 records for 8 of the 13 points;
    # a pair of 9, 20 or 40 records takes 7, 3 or 1 points a tile, and one of
    # 70 or 150 records a tile of its own, one point by more than 64
    # records.  Every sum is bitwise that of the one-point pass.
    ds = long_pair_dataset()
    grid = np.linspace(-0.1, 1.1, 13)
    lone = [next(estimator._pair_sums(ds, [t], 0.1, kernel, before)) for t in grid]
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    tiles = []
    real = Kernel.weight

    def spy(self, t, t_k, h, out=None, **kw):
        tiles.append((np.shape(t)[0], np.size(t_k)))
        return real(self, t, t_k, h, out=out, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    (chunk, den, num, kept), = estimator._pair_sums(ds, grid, 0.1, kernel, before)
    assert np.array_equal(chunk, grid)
    for d, (_, lone_den, lone_num, lone_kept) in enumerate(lone):
        assert np.array_equal(den[d], lone_den[0]) and np.array_equal(num[d], lone_num[0])
        assert (kept is None) == (lone_kept is None)
        assert kept is None or kept[d] == lone_kept[0]
    if kernel is not None:
        rows = {r for r, _ in tiles}
        assert {8, 7, 3, 1} <= rows and max(rows) == 8
        assert (1, 150) in tiles and all(r * k <= 64 for r, k in tiles if k <= 64)


def two_block_dataset():
    """Three items, two pairs of 10 records each, times in [0, 1]."""
    rng = np.random.default_rng(13)
    return ComparisonDataset(3, [0] * 10 + [1] * 10, [1] * 10 + [2] * 10,
                             rng.uniform(0.0, 1.0, 20), rng.integers(0, 2, 20))


def all_pair_sums(ds, grid, kernel, before):
    """Every chunk's (chunk, den, num, kept) of the pass."""
    return list(estimator._pair_sums(ds, grid, 0.1, kernel, before))


@pytest.mark.parametrize("kernel, before", [
    (GAUSSIAN, False), (GAUSSIAN, True), (EPANECHNIKOV, False), (EPANECHNIKOV, True),
    (BOXCAR, False), (BOXCAR, True), (None, True),
])
@pytest.mark.parametrize("case", ["long pairs", "ragged", "two blocks"])
def test_pool_gives_the_sums_of_one_worker(monkeypatch, case, kernel, before):
    # Long pairs: chunks of 4 points over 8 blocks of up to 16 records, four
    # of them a pair longer than a block.  Ragged: one point a chunk over
    # blocks of up to 12 records.  Two blocks: fewer than 3 workers.  Threads
    # switch every microsecond, so a lost update between workers would show.
    ds, tile, cache = {
        "long pairs": (long_pair_dataset(), 4 * 25, 64),
        "ragged": (ragged_dataset(), 24, 12),
        "two blocks": (two_block_dataset(), estimator.TILE_ELEMENTS, 80),
    }[case]
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", tile)
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", cache)
    grid = np.linspace(-0.1, 1.1, 13)
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    want = all_pair_sums(ds, grid, kernel, before)
    assert len(want) == {"long pairs": 4, "ragged": 13, "two blocks": 1}[case]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (2, 3):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            got = all_pair_sums(ds, grid, kernel, before)
            assert len(got) == len(want)
            for (chunk, den, num, kept), (w_chunk, w_den, w_num, w_kept) in zip(got, want):
                assert np.array_equal(chunk, w_chunk)
                assert np.array_equal(den, w_den) and np.array_equal(num, w_num)
                assert (kept is None) == (w_kept is None)
                assert kept is None or np.array_equal(kept, w_kept)
    finally:
        sys.setswitchinterval(interval)


def test_each_block_scans_its_time_range_once(monkeypatch):
    # Every tile of a block gets the one (min, max) of the block's times.
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    spans = {}
    real = Kernel.weight

    def spy(self, t, t_k, h, out=None, t_k_span=None):
        spans.setdefault(t_k.__array_interface__["data"][0], []).append(t_k_span)
        assert t_k_span == (t_k.min(), t_k.max())
        return real(self, t, t_k, h, out=out, t_k_span=t_k_span)

    monkeypatch.setattr(Kernel, "weight", spy)
    all_pair_sums(long_pair_dataset(), np.linspace(-0.1, 1.1, 13), GAUSSIAN, False)
    assert len(spans) == 9 and max(len(tiles) for tiles in spans.values()) == 13
    for tiles in spans.values():
        assert all(span is tiles[0] for span in tiles)


def test_worker_error_is_raised_after_every_worker_returns(monkeypatch):
    # Three workers take blocks 0, 3, 6 / 1, 4, 7 / 2, 5, 8.  Block 4 fails
    # at once and block 2 later; worker 0's tiles are slow.  The pass raises
    # block 2's error, the first in block order though not in worker order,
    # once worker 0 has computed all its tiles; the failed workers' later
    # blocks are not run.
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    ds, grid = long_pair_dataset(), np.linspace(-0.1, 1.1, 13)
    origin = ds.times.__array_interface__["data"][0]
    real = Kernel.weight
    seen = []

    def spy(self, t, t_k, h, out=None, **kw):
        seen.append((t_k.__array_interface__["data"][0] - origin) // 8)
        return real(self, t, t_k, h, out=out, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    all_pair_sums(ds, grid, GAUSSIAN, False)
    firsts = sorted(set(seen))  # each block's first record
    assert len(firsts) == 9
    tiles = {first: seen.count(first) for first in firsts}
    ran, done = [], []

    def failing(self, t, t_k, h, out=None, **kw):
        block = firsts.index((t_k.__array_interface__["data"][0] - origin) // 8)
        ran.append(block)
        if block == 2:
            time.sleep(0.1)
            raise ValueError("block 2")
        if block == 4:
            raise ValueError("block 4")
        time.sleep(0.005 if block % 3 == 0 else 0.0)
        w = real(self, t, t_k, h, out=out, **kw)
        done.append(time.perf_counter())
        return w

    monkeypatch.setattr(Kernel, "weight", failing)
    monkeypatch.setattr(estimator, "_WORKERS", 3)
    with pytest.raises(ValueError, match="^block 2$"):
        all_pair_sums(ds, grid, GAUSSIAN, False)
    raised = time.perf_counter()
    assert max(done) < raised
    for block in (0, 1, 3, 6):
        assert ran.count(block) == tiles[firsts[block]]
    assert ran.count(2) == ran.count(4) == 1
    assert not {5, 7, 8} & set(ran)


def test_pair_sums_inside_a_share_runs_its_blocks_in_that_thread(monkeypatch):
    # Two shares each run a pass of 9 blocks.  Nested in a share, the pass
    # deals no block to the pool, whose one thread runs the other share: all
    # its tiles run in its share's thread, and its sums are one worker's.
    # The shares run in a daemon thread, so a deadlock fails the test
    # instead of hanging it.
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    ds, grid = long_pair_dataset(), np.linspace(-0.1, 1.1, 13)
    threads = []
    real = Kernel.weight

    def spy(self, *args, **kw):
        threads.append(threading.get_ident())
        return real(self, *args, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    (_, want, _, _), = all_pair_sums(ds, grid, GAUSSIAN, False)
    tiles, threads[:] = len(threads), []
    monkeypatch.setattr(estimator, "_WORKERS", 2)
    monkeypatch.setattr(estimator, "_pool", None)

    def share(parts):
        return [(threading.get_ident(), all_pair_sums(ds, grid, GAUSSIAN, False))
                for _ in parts]

    got = []
    runner = threading.Thread(target=lambda: got.extend(estimator._deal(share, [0, 1])),
                              daemon=True)
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), "a pass inside a share waited on the pool"
    [(first, [(_, den0, _, _)])], [(second, [(_, den1, _, _)])] = got
    assert first == runner.ident and second != first
    assert sorted(threads) == sorted([first] * tiles + [second] * tiles)
    assert np.array_equal(den0, want) and np.array_equal(den1, want)


@pytest.mark.skipif(sys.platform != "linux", reason="forks the test process")
def test_child_forked_after_a_pooled_pass_runs_one(monkeypatch):
    # The child has none of the parent's pool threads; a pool it inherited
    # would count its thread as idle, take its work and never run it.  Slow
    # tiles in the parent's pass keep both workers busy at once, so the pool
    # starts its thread.
    monkeypatch.setattr(estimator, "_WORKERS", 2)
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    ds, grid = long_pair_dataset(), np.linspace(-0.1, 1.1, 13)
    real = Kernel.weight

    def slow(self, *args, **kw):
        time.sleep(0.002)
        return real(self, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "weight", slow)
        (_, want, _, _), = all_pair_sums(ds, grid, GAUSSIAN, False)
    assert estimator._pool is not None
    with warnings.catch_warnings():  # a fork beside threads warns on Python 3.12+
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            (_, den, _, _), = all_pair_sums(ds, grid, GAUSSIAN, False)
            code = 0 if np.array_equal(den, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pass did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def pair_sums_peak(workers, monkeypatch):
    """The tracemalloc peak, in bytes, of the curve's kernel pass over pairs
    of 20,000 records each, on ``workers`` threads."""
    monkeypatch.setattr(estimator, "_WORKERS", workers)
    ds, _ = generate(SimConfig(n=10, m=20_000, seed=2))
    grid = np.arange(1, 200) / 200
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        for _ in estimator._pair_sums(ds, grid, 0.1, GAUSSIAN):
            pass
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_pair_sums_peak_near_one_tile_on_long_pairs(monkeypatch):
    # Every pair holds 20,000 records, longer than a record block: the pass
    # holds one tile and one block of float outcomes (1 MiB each), not a
    # fresh (grid chunk x pair) array per pair (79 MB), nor the float
    # outcomes of every record (7.2 MB; the peak was 8.4 MB with them).
    peak = pair_sums_peak(1, monkeypatch)
    assert peak < 3e6


def test_pair_sums_peak_near_one_tile_per_worker_on_long_pairs(monkeypatch):
    # The test above on two workers: each holds its own tile and block of
    # float outcomes, so the bound takes one more of each (2 MiB).
    peak = pair_sums_peak(2, monkeypatch)
    assert peak < 2 * (2**20 + 2**20) + (3e6 - (2**20 + 2**20))


def test_estimate_curve_raises_at_first_zero_mass_point():
    ds = ComparisonDataset(
        3, np.array([0, 0, 1]), np.array([1, 2, 2]),
        np.array([0.1, 0.15, 0.2]), np.array([1, 0, 1]),
    )
    with pytest.raises(EstimationError) as lone:
        fit_scores(ds, 0.6, 0.1, BOXCAR)
    with pytest.raises(EstimationError) as batched:
        estimate_curve(ds, [0.15, 0.6, 0.9], 0.1, BOXCAR)
    assert str(batched.value) == str(lone.value)
    assert "t=0.6" in str(batched.value)


def test_curve_solves_chain_stacks_equal_to_single_fits(monkeypatch):
    # A budget of four 30-item chains splits a 20-point curve into several
    # grid chunks and stacks; every point equals its one-chain fit.
    ds, _ = generate(SimConfig(n=30, m=4, seed=21))
    grid = np.linspace(0.05, 0.95, 20)
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 4 * 30 * 30)
    sizes = []
    real = estimator._stationary_stack

    def spy(M, tol, max_iter):
        sizes.append(M.shape[0])
        return real(M, tol, max_iter)

    monkeypatch.setattr(estimator, "_stationary_stack", spy)
    curve = estimate_curve(ds, grid, 0.1, GAUSSIAN)
    assert len(sizes) >= 3 and min(sizes) > 1 and max(sizes) <= 4
    assert sum(sizes) == grid.size
    for sv, t in zip(curve, grid):
        lone = fit_scores(ds, float(t), 0.1, GAUSSIAN)
        assert sv.t == t and np.array_equal(sv.scores, lone.scores)
    # Zero-mass points inside one stack: the first in grid order raises.
    bad = [0.2, 0.5, 5.0, 7.0, 0.7, 9.0]
    with pytest.raises(EstimationError) as lone:
        fit_scores(ds, 5.0, 0.1, BOXCAR)
    with pytest.raises(EstimationError) as batched:
        estimate_curve(ds, bad, 0.1, BOXCAR)
    assert str(batched.value) == str(lone.value) and "t=5.0" in str(lone.value)


def test_estimate_curve_empty_grid_and_bad_bandwidth():
    ds, _ = generate(SimConfig(n=4, m=5, seed=1))
    assert estimate_curve(ds, [], 0.25, GAUSSIAN) == []
    assert estimate_curve(ds, np.empty(0), 0.25, GAUSSIAN) == []
    for h in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_curve(ds, [0.5], h, GAUSSIAN)
    empty = ComparisonDataset(3, [], [], [], [])
    with pytest.raises(EstimationError, match="no comparison records"):
        estimate_curve(empty, [0.5], 0.25, GAUSSIAN)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_kernel_fits_reject_a_time_that_is_not_finite(t):
    # Every record weighs 0 at such a t, which read as a fit without mass.
    ds, _ = generate(SimConfig(n=4, m=5, seed=1))
    sv = fit_scores(ds, 0.5, 0.25, GAUSSIAN)
    message = f"evaluation time must be finite, got {t}"
    fits = [
        lambda: fit_scores(ds, t, 0.25, GAUSSIAN),
        lambda: estimate_curve(ds, [0.5, t, 0.7, float("nan")], 0.25, GAUSSIAN),
        lambda: wmle(ds, t, 0.25, GAUSSIAN),
        lambda: plug_in_alpha(sv, ds, t, 0.25, GAUSSIAN, effective_counts=True),
    ]
    for fit in fits:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit()


# -- diagnostics -----------------------------------------------------------


def component_graphs():
    """Seven-node graphs: random ones, the empty graph (seven singletons), the
    complete graph, a one-way path (singletons joined by edges) and two
    three-cycles beside a node with only in-edges."""
    rng = np.random.default_rng(8)
    graphs = [rng.random((7, 7)) < p for p in (0.1, 0.2, 0.3, 0.45) for _ in range(3)]
    path = np.eye(7, k=1, dtype=bool)
    cycles = np.zeros((7, 7), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 6), (3, 6)):
        cycles[a, b] = True
    graphs[2:2] = [np.zeros((7, 7), dtype=bool), np.ones((7, 7), dtype=bool), path, cycles]
    return np.array(graphs)


@pytest.mark.parametrize("budget", [None, 1, 40, 100])
def test_strong_components_partition_as_one_call_per_graph(monkeypatch, budget):
    # Small edge budgets split the stack into sub-stacks: at 1 edge each
    # graph is a sub-stack alone; at 40 or 100 sub-stacks hold several graphs
    # and end inside the run of sparse ones.
    from scipy.sparse import csgraph

    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    calls = []
    real = csgraph.connected_components

    def spy(graph, **kwargs):
        calls.append(graph.shape[0] // 7)
        return real(graph, **kwargs)

    adj = component_graphs()
    monkeypatch.setattr(estimator.csgraph, "connected_components", spy)
    labels = estimator._strong_components(adj)
    monkeypatch.undo()
    assert labels.shape == (adj.shape[0], 7)
    assert sum(calls) == adj.shape[0]
    if budget == 1:
        assert calls == [1] * adj.shape[0]
    elif budget is not None:
        assert 1 < len(calls) < adj.shape[0]
    else:
        assert calls == [adj.shape[0]]
    for graph, got in zip(adj, labels):
        _, want = csgraph.connected_components(graph, directed=True, connection="strong")
        assert np.array_equal(got[:, None] == got, want[:, None] == want)
    # no two graphs share a label
    assert all(
        not set(a.tolist()) & set(b.tolist())
        for k, a in enumerate(labels) for b in labels[k + 1:]
    )
    assert len(set(labels[2].tolist())) == 7 and len(set(labels[3].tolist())) == 1
    assert len(set(labels[4].tolist())) == 7 and len(set(labels[5].tolist())) == 3
