"""Transition construction, stationary solves, score curves."""

import time

import numpy as np
import pytest

from krc import estimator
from krc.data import ComparisonDataset
from krc.errors import ConnectivityError, ConvergenceError, EstimationError
from krc.estimator import (
    ScoreVector,
    TransitionMatrix,
    build_ideal_transition,
    default_teleport,
    estimate_curve,
    fit_scores,
    pair_fractions,
    regularize,
    stationary,
    transition_from_fractions,
)
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
    P2 = transition_from_fractions(ds.n, *pair_fractions(ds, 0.5, 0.2, GAUSSIAN))
    P2.check(tol=1e-12)


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
    P = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    R = regularize(P, 0.1)
    assert R.entries[0, 1] == pytest.approx(0.9 * 0.1 + 0.05, abs=1e-16)
    # composing two teleports multiplies the survival factors
    R2 = regularize(R, 0.2)
    np.testing.assert_allclose(
        R2.entries, regularize(P, 1 - 0.9 * 0.8).entries, rtol=0, atol=1e-15
    )
    same = regularize(P, 0.0)
    assert np.array_equal(same.entries, P.entries)
    with pytest.raises(ValueError):
        regularize(P, 1.0)
    with pytest.raises(ValueError):
        regularize(P, -0.1)


def test_default_teleport():
    assert default_teleport(4) == 0.25


# -- stationary solves -----------------------------------------------------


def test_stationary_two_state_frozen():
    P = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    sv = stationary(P, tol=1e-13)
    assert np.max(np.abs(sv.scores - [2 / 3, 1 / 3])) < 1e-12
    assert sv.residual(P) < 1e-13


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
    res = sv.residual(P)
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
        P = regularize(transition_from_fractions(ds.n, *got), sigma)
        assert np.array_equal(sv.scores, stationary(P).scores)
        P = regularize(transition_from_fractions(ds.n, *ref), sigma)
        assert np.max(np.abs(sv.scores - stationary(P).scores)) <= 1e-12
        assert np.array_equal(sv.scores, fit_scores(ds, t, h, kernel).scores)


def test_small_budget_splits_grid_and_records(monkeypatch):
    # Guard for the test above: a budget of 72 does split the pass.  A grid
    # chunk is one stack of 6-item chains, two of them at that budget, so its
    # tiles hold 36 of the 45 records: two blocks per two-point chunk.
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 72)
    tiles, buffers = [], set()
    real = Kernel.weight

    def spy(self, t, t_k, h, out=None):
        tiles.append((np.shape(t)[0], np.size(t_k)))
        buffers.add((t[0, 0], id(out.base)))  # every tile fits its chunk's buffer
        return real(self, t, t_k, h, out=out)

    monkeypatch.setattr(Kernel, "weight", spy)
    ds = ragged_dataset()
    estimate_curve(ds, np.linspace(0.1, 0.9, 7), 0.2, GAUSSIAN)
    rows = [r for r, _ in tiles]
    assert max(rows) > 1 and min(rows) < max(rows)  # several multi-point chunks
    assert len(tiles) > -(-7 // max(rows))  # records are split into blocks
    assert sum(r * c for r, c in tiles) == 7 * ds.n_records  # each weight once
    assert len(buffers) == len({t for t, _ in buffers})  # one buffer per chunk


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
    real = estimator._power_iterate

    def spy(M, tol, max_iter):
        sizes.append(M.shape[0])
        return real(M, tol, max_iter)

    monkeypatch.setattr(estimator, "_power_iterate", spy)
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


# -- diagnostics -----------------------------------------------------------


def test_transition_check_catches_violations():
    bad = TransitionMatrix(np.array([[0.5, 0.5], [0.7, 0.3]]))
    with pytest.raises(ValueError, match="above 1/n"):
        bad.check()
    bad2 = TransitionMatrix(np.array([[0.9, 0.2], [0.25, 0.8]]))
    with pytest.raises(ValueError, match="row sums"):
        bad2.check()


def test_score_vector_residual():
    P = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    sv = ScoreVector(np.array([2 / 3, 1 / 3]))
    assert sv.residual(P) < 1e-15


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
