"""Group inverse, rank-one updates, and the streaming estimator."""

import itertools
import warnings

import numpy as np
import pytest

import krc.online
from krc.data import ComparisonDataset, ComparisonRecord
from krc.errors import (
    ConnectivityError,
    ConvergenceError,
    DataFormatError,
    RosterError,
    UpdateBreakdownError,
)
from krc.estimator import (
    ScoreVector,
    TransitionMatrix,
    _chain_stack,
    default_teleport,
    fit_scores,
    stationary,
)
from krc.kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN
from krc.online import (
    OnlineState,
    _chain,
    _fold,
    apply_observation,
    group_inverse,
    group_inverse_residuals,
    rank_one_update,
    refresh,
)
from krc.simulate import SimConfig, generate, truth_probability


def random_chain(rng, n, sigma=0.15):
    M = rng.uniform(0.0, 1.0, size=(n, n))
    M /= M.sum(axis=1, keepdims=True)
    return TransitionMatrix((1 - sigma) * M + sigma / n)


def solve_state(P, tol=1e-13):
    pi = stationary(P, tol=tol)
    return pi, group_inverse(P, pi)


# -- group inverse ---------------------------------------------------------


def test_group_inverse_frozen_two_state():
    P = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pi = ScoreVector(np.array([0.5, 0.5]))
    G = group_inverse(P, pi).entries
    expect = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.max(np.abs(G - expect)) < 1e-15


def test_group_inverse_axioms_random_chains():
    rng = np.random.default_rng(17)
    for n in (2, 4, 9, 21):
        P = random_chain(rng, n)
        pi, G = solve_state(P)
        res = group_inverse_residuals(P, pi, G)
        assert res["axiom_AGA"] < 1e-11
        assert res["axiom_GAG"] < 1e-11
        assert res["axiom_commute"] < 1e-11
        assert res["right_null"] < 1e-11
        assert res["left_null"] < 1e-11


def test_group_inverse_null_spaces():
    rng = np.random.default_rng(23)
    P = random_chain(rng, 6)
    pi, G = solve_state(P)
    assert np.max(np.abs(G.entries @ np.ones(6))) < 1e-12
    assert np.max(np.abs(pi.scores @ G.entries)) < 1e-12


def test_group_inverse_of_a_singular_system_breaks_down():
    # pi = 0 is no stationary vector: A + e pi' = A, which is singular.
    P = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(UpdateBreakdownError, match="singular"):
        group_inverse(P, ScoreVector(np.zeros(2)))


def test_group_inverse_of_a_chain_with_two_absorbing_states_breaks_down():
    # e_0 is one of many stationary vectors: rows 0 and 1 of A + e e_0' match.
    P = TransitionMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UpdateBreakdownError, match="singular"):
            group_inverse(P, ScoreVector(np.array([1.0, 0.0, 0.0])))


# -- rank-one updates ------------------------------------------------------


def test_rank_one_update_frozen_case():
    # uniform 2-state chain, row 0 becomes [0.8, 0.2]
    P = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    pi, G = solve_state(P)
    delta = np.array([0.5 - 0.8, 0.5 - 0.2])
    pi_new, _ = rank_one_update(pi, G, delta, 0)
    assert np.max(np.abs(pi_new.scores - [5 / 7, 2 / 7])) < 1e-14


def test_rank_one_update_matches_direct_recompute():
    rng = np.random.default_rng(31)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        P = random_chain(rng, n)
        pi, G = solve_state(P)
        i = int(rng.integers(n))
        new_row = rng.uniform(0.05, 1.0, size=n)
        new_row /= new_row.sum()
        delta = P.entries[i] - new_row

        pi_new, G_new = rank_one_update(pi, G, delta, i)

        M2 = P.entries.copy()
        M2[i] = new_row
        P2 = TransitionMatrix(M2)
        pi_direct, G_direct = solve_state(P2)
        assert np.max(np.abs(pi_new.scores - pi_direct.scores)) < 1e-10
        assert np.max(np.abs(G_new.entries - G_direct.entries)) < 1e-8
        res = group_inverse_residuals(P2, pi_new, G_new)
        assert max(res.values()) < 1e-9


def test_rank_one_update_identity_delta():
    rng = np.random.default_rng(5)
    P = random_chain(rng, 5)
    pi, G = solve_state(P)
    pi_new, G_new = rank_one_update(pi, G, np.zeros(5), 2)
    assert np.array_equal(pi_new.scores, pi.scores)
    assert np.array_equal(G_new.entries, G.entries)


def test_rank_one_update_breakdown_guard():
    P = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pi, G = solve_state(P)
    # delta'A#[:, 0] = -1 forces the denominator to zero
    delta = np.array([-2.0, 2.0])
    with pytest.raises(UpdateBreakdownError):
        rank_one_update(pi, G, delta, 0)


def test_rank_one_update_validation():
    P = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    pi, G = solve_state(P)
    with pytest.raises(ValueError, match="shape"):
        rank_one_update(pi, G, np.zeros(3), 0)
    with pytest.raises(ValueError, match="sum to zero"):
        rank_one_update(pi, G, np.array([0.1, 0.2]), 0)
    with pytest.raises(ValueError, match="outside"):
        rank_one_update(pi, G, np.zeros(2), 5)


def test_pair_update_breakdown_writes_nothing():
    # The uniform 2-state chain with d_01 = d_10 = 0.5 becomes the identity,
    # which is reducible: 1 + w'A#v = 0.
    P = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    pi, G = solve_state(P)
    pi_f, G_f = pi.scores.copy(), G.entries.copy()
    v = np.array([0.5, -0.5])
    with pytest.raises(UpdateBreakdownError, match="denominator"):
        _fold(pi_f, [0, 1], v, G_f[1] - G_f[0], G_f[:, [0, 1]] @ v)
    assert np.array_equal(pi_f, pi.scores)
    assert np.array_equal(G_f, G.entries)


# -- streaming state -------------------------------------------------------


def stream_setup(seed=3, n=6, m=4):
    ds, truth = generate(SimConfig(n=n, m=m, seed=seed))
    state = OnlineState.from_dataset(
        ds, 0.5, 0.3, GAUSSIAN, refresh_every=10**9, tol=1e-12
    )
    return ds, truth, state


def test_cold_start_matches_batch_fit():
    ds, _, state = stream_setup()
    sv = fit_scores(ds, 0.5, 0.3, GAUSSIAN, tol=1e-12)
    assert np.max(np.abs(state.pi.scores - sv.scores)) < 1e-11


def test_stream_matches_batch_rebuild():
    rng = np.random.default_rng(77)
    ds, truth, state = stream_setup()
    n = state.n
    extra = []
    for _ in range(150):
        a, b = sorted(rng.choice(n, size=2, replace=False))
        tk = float(rng.uniform(0, 1))
        y = int(rng.random() < truth_probability(truth, int(a), int(b), tk))
        extra.append((int(a), int(b), tk, y))
        apply_observation(state, extra[-1])

    tt, ii, jj, yy = ds.in_time_order()
    added = np.array(extra, dtype=float).reshape(-1, 4)
    full = ComparisonDataset(
        n,
        np.concatenate([ii, added[:, 0].astype(np.int64)]),
        np.concatenate([jj, added[:, 1].astype(np.int64)]),
        np.concatenate([tt, added[:, 2]]),
        np.concatenate([yy, added[:, 3].astype(np.int64)]),
    )
    sv = fit_scores(full, 0.5, 0.3, GAUSSIAN, tol=1e-13)
    assert np.max(np.abs(state.pi.scores - sv.scores)) < 1e-9
    res = group_inverse_residuals(state.P, state.pi, state.Ainv)
    assert max(res.values()) < 1e-8


def test_stream_with_periodic_refresh_matches():
    rng = np.random.default_rng(78)
    ds, truth, _ = stream_setup()
    a_state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=7)
    b_state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=10**9)
    for _ in range(60):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        rec = (int(i), int(j), float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
        apply_observation(a_state, rec)
        apply_observation(b_state, rec)
    assert np.max(np.abs(a_state.pi.scores - b_state.pi.scores)) < 1e-8


def test_stream_preserves_chain_invariants():
    rng = np.random.default_rng(79)
    ds, _, state = stream_setup()
    n = state.n
    for _ in range(80):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        rec = (int(i), int(j), float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
        apply_observation(state, rec)
    P = state.P.entries
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    sigma = state.sigma_n
    floor = sigma / n
    for i in range(n):
        for j in range(i + 1, n):
            pair = P[i, j] + P[j, i]
            # regularized pair sum: (1 - sigma)/n + 2 sigma/n
            assert pair == pytest.approx((1 - sigma) / n + 2 * floor, abs=1e-13)


def test_zero_weight_record_is_noop():
    ds, _, _ = stream_setup()
    state = OnlineState.from_dataset(ds, 0.5, 0.05, BOXCAR)
    before_pi = state.pi.scores.copy()
    before_P = state.P.entries.copy()
    before_sums = state.pair_sums.copy()
    apply_observation(state, (0, 1, 0.99, 1))
    assert np.array_equal(state.pi.scores, before_pi)
    assert np.array_equal(state.P.entries, before_P)
    assert np.array_equal(state.pair_sums, before_sums)
    assert state.updates_since_refresh == 0


def test_refresh_counter_cycles():
    ds, _, _ = stream_setup()
    state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=3)
    rng = np.random.default_rng(1)
    counts = []
    for _ in range(7):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        apply_observation(
            state, (int(i), int(j), float(rng.uniform(0, 1)), 1)
        )
        counts.append(state.updates_since_refresh)
    assert counts == [1, 2, 0, 1, 2, 0, 1]


def test_refresh_is_idempotent_for_scores():
    ds, _, state = stream_setup()
    before = state.pi.scores.copy()
    refresh(state)
    assert np.max(np.abs(state.pi.scores - before)) < 1e-11


def test_from_empty_starts_uniform():
    state = OnlineState(4, 0.5, 0.2, GAUSSIAN)
    assert np.max(np.abs(state.pi.scores - 0.25)) < 1e-12
    apply_observation(state, (0, 1, 0.5, 1))
    assert state.pi.scores[1] > state.pi.scores[0]


def test_stream_from_empty_matches_batch():
    # every pair passes through the first-mass transition
    rng = np.random.default_rng(44)
    n = 5
    state = OnlineState(n, 0.5, 0.3, GAUSSIAN)
    rows = []
    for _ in range(120):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        rec = (int(i), int(j), float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
        rows.append(rec)
        apply_observation(state, rec)
    ds = ComparisonDataset(
        n,
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
    )
    sv = fit_scores(ds, 0.5, 0.3, GAUSSIAN, tol=1e-13)
    assert np.max(np.abs(state.pi.scores - sv.scores)) < 1e-8


def test_non_canonical_record_equivalence():
    s1 = OnlineState(4, 0.5, 0.2, GAUSSIAN)
    s2 = OnlineState(4, 0.5, 0.2, GAUSSIAN)
    apply_observation(s1, (2, 0, 0.5, 1))
    apply_observation(s2, ComparisonRecord(0, 2, 0.5, 0))
    assert np.array_equal(s1.pi.scores, s2.pi.scores)
    assert np.array_equal(s1.pair_sums, s2.pair_sums)


def test_record_outside_roster_rejected():
    state = OnlineState(3, 0.5, 0.2, GAUSSIAN)
    with pytest.raises(RosterError):
        apply_observation(state, (0, 7, 0.5, 1))


def test_state_validation():
    with pytest.raises(ValueError):
        OnlineState(1, 0.5, 0.2, GAUSSIAN)
    with pytest.raises(ValueError):
        OnlineState(3, 0.5, -0.2, GAUSSIAN)
    with pytest.raises(ValueError):
        OnlineState(3, 0.5, 0.2, GAUSSIAN, refresh_every=0)


def test_both_constructors_reject_refresh_every_below_one(monkeypatch):
    ds, _ = generate(SimConfig(n=4, m=3, seed=2))
    for every in (0, -5):
        with pytest.raises(ValueError, match="refresh_every"):
            OnlineState(4, 0.5, 0.3, GAUSSIAN, refresh_every=every)
        with pytest.raises(ValueError, match="refresh_every"):
            OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=every)
    refreshes = []
    real = krc.online.refresh
    monkeypatch.setattr(krc.online, "refresh", lambda s: refreshes.append(s) or real(s))
    state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=2)
    assert refreshes == [state] and state.refresh_every == 2


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_both_constructors_reject_a_time_that_is_not_finite(t):
    # Every record would weigh 0 at such a t, and the scores stay uniform.
    ds, _ = generate(SimConfig(n=4, m=3, seed=2))
    with pytest.raises(ValueError, match="evaluation time must be finite"):
        OnlineState(4, t, 0.3, GAUSSIAN)
    with pytest.raises(ValueError, match="evaluation time must be finite"):
        OnlineState.from_dataset(ds, t, 0.3, GAUSSIAN)


def loop_pair_sums(ds, t, h, kernel):
    """Reference: one kernel call and two sums per observed pair, the
    pair's mass above the diagonal and item_j's wins below it."""
    sums = np.zeros((ds.n, ds.n))
    for (i, j), times, outs in ds.pairs():
        w = kernel.weight(t, times, h)
        sums[i, j] = float(w.sum())
        sums[j, i] = float(w[outs == 1].sum())
    return sums


def test_from_dataset_masses_match_pair_loop():
    ds, _ = generate(SimConfig(n=7, m=9, seed=12))
    for t, h in ((0.5, 0.3), (0.1, 0.05), (0.95, 0.2)):
        state = OnlineState.from_dataset(ds, t, h, GAUSSIAN)
        ref = loop_pair_sums(ds, t, h, GAUSSIAN)
        assert np.all(np.abs(state.pair_sums - ref) <= 1e-14 * ref)
        assert np.array_equal(state.pair_sums > 0, ref > 0)
    empty = ComparisonDataset(4, [], [], [], [])
    state = OnlineState.from_dataset(empty, 0.5, 0.3, GAUSSIAN)
    assert not np.any(state.pair_sums)
    assert np.max(np.abs(state.pi.scores - 0.25)) < 1e-12


def test_from_dataset_scores_bitwise_match_fit_scores():
    # The state reads the batch fit's kernel sums and builds, teleports and
    # solves its chain the same way, so the scores agree to the last bit.
    unequal = []
    datasets = [generate(SimConfig(n=6, m=4, seed=seed))[0] for seed in range(10)]
    for ds, kernel, (t, h), sigma, tol in itertools.product(
        datasets,
        (GAUSSIAN, BOXCAR, EPANECHNIKOV),
        ((0.5, 0.3), (0.2, 0.1), (0.9, 0.05)),
        (None, 0.05),
        (1e-10, 1e-12),
    ):
        state = OnlineState.from_dataset(ds, t, h, kernel, sigma_n=sigma, tol=tol)
        batch = fit_scores(ds, t, h, kernel, sigma, tol)
        if not np.array_equal(state.pi.scores, batch.scores):
            unequal.append((kernel.family, t, h, sigma, tol))
    assert unequal == []


def test_raw_chain_gate_is_the_batch_fits():
    # Two disjoint pairs: the sigma_n=0 chain has two strong components, so
    # the state refuses it with the batch fit's error, as it does a raw
    # chain without mass; a strongly connected raw chain is the batch fit's.
    ds = ComparisonDataset(4, [0, 0, 2, 2], [1, 1, 3, 3], [0.5] * 4, [1, 0, 1, 0])
    with pytest.raises(ConnectivityError) as batch:
        fit_scores(ds, 0.5, 0.1, GAUSSIAN, sigma_n=0.0)
    with pytest.raises(ConnectivityError) as online:
        OnlineState.from_dataset(ds, 0.5, 0.1, GAUSSIAN, sigma_n=0.0)
    assert str(online.value) == str(batch.value)
    assert "(2 components)" in str(batch.value)
    with pytest.raises(ConnectivityError, match=r"not strongly connected \(4 components\)"):
        OnlineState(4, 0.5, 0.1, GAUSSIAN, sigma_n=0.0)
    ds, _ = generate(SimConfig(n=6, m=4, seed=0))
    state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, sigma_n=0.0)
    assert np.array_equal(state.pi.scores, fit_scores(ds, 0.5, 0.3, GAUSSIAN, 0.0).scores)


def test_transition_from_mass_checks_diagonal_deficit():
    # a kernel mass of 0.5 with 1.5 of it won by item 1 pushes row 0's
    # off-diagonal entry to 1.5
    state = OnlineState(2, 0.5, 0.3, GAUSSIAN)
    state.pair_sums[:] = [[0.0, 0.5], [1.5, 0.0]]
    with pytest.raises(RuntimeError, match="diagonal deficit"):
        refresh(state)


# -- the refresh's dense chain build ---------------------------------------


def batch_chain(sums, t, sigma_n):
    """``_chain_stack``'s chain of the n x n running ``sums``, and its gate."""
    n = len(sums)
    i, j = np.triu_indices(n, 1)
    (chain,), (gate,) = _chain_stack(
        n, i, j, [t], sums[i, j][None], sums[j, i][None], sigma_n
    )
    return chain, gate


def assert_dense_chain_is_batch_chain(sums, t=0.5):
    for sigma in (default_teleport(len(sums)), 0.0):
        chain, gate = batch_chain(sums.copy(), t, sigma)
        if gate is None:
            dense = _chain(sums, t, sigma)
            assert np.array_equal(dense.view(np.int64), chain.view(np.int64))
        else:
            with pytest.raises(ConnectivityError) as err:
                _chain(sums, t, sigma)
            assert str(err.value) == str(gate)


def test_dense_chain_is_the_batch_chain_to_the_bit():
    # pair (0, 3) has no mass, pair (0, 1) a share of exactly 0 and pair
    # (1, 2) one of exactly 1; the sigma_n=0 chain stays strongly connected
    # through item 2
    edges = np.array([
        [0.0, 0.7, 0.4, 0.0],
        [0.0, 0.0, 0.3, 0.2],
        [0.1, 0.3, 0.0, 0.9],
        [0.0, 0.05, 0.6, 0.0],
    ])
    assert batch_chain(edges, 0.5, 0.0)[1] is None
    assert_dense_chain_is_batch_chain(edges)
    edges[2, 0] = 0.0  # row 0 loses its edge to item 2 too: gated
    assert batch_chain(edges, 0.5, 0.0)[1] is not None
    assert_dense_chain_is_batch_chain(edges)
    for won in (0.0, 0.25, 0.5):  # n = 2: shares 0, 1/2 and 1
        assert_dense_chain_is_batch_chain(np.array([[0.0, 0.5], [won, 0.0]]))
    assert_dense_chain_is_batch_chain(np.zeros((3, 3)))
    rng = np.random.default_rng(34)
    for n in (3, 9, 40):
        mass = np.triu(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7), 1)
        won = mass * rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.9)
        assert_dense_chain_is_batch_chain(mass + won.T, t=rng.uniform())


def test_dense_chain_checks_the_diagonal_deficit():
    # won mass above the pair's kernel mass, as _chain_stack refuses it
    sums = np.array([[0.0, 0.5, 0.2], [1.5, 0.0, 0.1], [0.1, 0.0, 0.0]])
    for sigma in (1.0 / 3, 0.0):
        with pytest.raises(RuntimeError, match="diagonal deficit"):
            batch_chain(sums, 0.5, sigma)
        with pytest.raises(RuntimeError, match="diagonal deficit"):
            _chain(sums, 0.5, sigma)


def test_running_refresh_of_a_chain_that_lost_an_edge_is_gated():
    # Two far records of the pair, one won by each item, then a near record
    # won by item 1 whose weight is 5e21 times theirs: the pair's share of
    # wins rounds to 1, and the sigma_n=0 chain loses its edge from 1 to 0.
    base = ComparisonDataset(2, [0, 0], [1, 1], [-0.5, 1.5], [1, 0])
    state = OnlineState.from_dataset(base, 0.5, 0.1, GAUSSIAN, sigma_n=0.0)
    with pytest.raises(ConnectivityError) as online:
        apply_observation(state, (0, 1, 0.5, 1))
    # The fold itself succeeded: pi moved onto item 1, and the refresh that
    # a pi entry at 0 calls for raised.  A forced refresh changes nothing.
    assert state.pair_sums[1, 0] == state.pair_sums[0, 1]
    assert state.pi.scores.min() <= 0.0
    snap = queue_snapshot(state)
    with pytest.raises(ConnectivityError) as forced:
        refresh(state)
    for got, want in zip(queue_snapshot(state), snap):
        assert np.array_equal(got, want)
    union = ComparisonDataset(2, [0, 0, 0], [1, 1, 1], [-0.5, 1.5, 0.5], [1, 0, 1])
    with pytest.raises(ConnectivityError) as batch:
        fit_scores(union, 0.5, 0.1, GAUSSIAN, sigma_n=0.0)
    assert str(online.value) == str(forced.value) == str(batch.value)
    assert "(2 components)" in str(batch.value)


def test_refresh_rebuilds_the_streamed_off_diagonal_entries():
    # refresh and apply_observation build a pair's entries the same way
    ds, _ = generate(SimConfig(n=8, m=5, seed=3))
    state = OnlineState.from_dataset(ds, 0.5, 0.2, GAUSSIAN, refresh_every=10**9)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = sorted(rng.choice(8, size=2, replace=False))
        apply_observation(state, (int(i), int(j), float(rng.uniform()), int(rng.integers(2))))
    streamed = state.P.entries.copy()
    refresh(state)
    off = ~np.eye(8, dtype=bool)
    assert np.array_equal(state.P.entries[off], streamed[off])


def snapshot(state):
    return (
        state.pair_sums.copy(),
        state.P.entries.copy(),
        state.pi.scores.copy(),
        state.Ainv.entries.copy(),
        state.updates_since_refresh,
    )


def assert_same_state(state, snap):
    sums, P, pi, G, count = snap
    assert np.array_equal(state.pair_sums, sums)
    assert np.array_equal(state.P.entries, P)
    assert np.array_equal(state.pi.scores, pi)
    assert np.array_equal(state.Ainv.entries, G)
    assert state.updates_since_refresh == count


def test_failed_fallback_refresh_leaves_state_unchanged(monkeypatch):
    ds, _ = generate(SimConfig(n=5, m=3, seed=8))
    state = OnlineState.from_dataset(ds, 0.5, 0.3, GAUSSIAN, refresh_every=50)
    apply_observation(state, (0, 1, 0.4, 1))
    snap = snapshot(state)

    def failing_inverse(*args, **kwargs):
        raise ConvergenceError("injected")

    monkeypatch.setattr(krc.online, "_inverse", failing_inverse)
    with pytest.raises(ConvergenceError):
        refresh(state)
    assert_same_state(state, snap)
    # every update breaks down, so each record goes through the refresh
    monkeypatch.setattr(krc.online, "_BREAKDOWN_EPS", 10.0)
    for rec in ((0, 1, 0.5, 0), (2, 4, 0.6, 1)):
        with pytest.raises(ConvergenceError):
            apply_observation(state, rec)
        assert_same_state(state, snap)


def test_mirror_drift_rejected_before_any_write():
    ds, _, state = stream_setup()
    state.P.entries[0, 1] += 1e-6  # corrupt a pair that carries mass
    snap = snapshot(state)
    with pytest.raises(RuntimeError, match="complement"):
        apply_observation(state, (0, 1, 0.5, 1))
    assert_same_state(state, snap)


def test_breakdown_fallback_stream_matches_batch(monkeypatch):
    monkeypatch.setattr(krc.online, "_BREAKDOWN_EPS", 10.0)
    rng = np.random.default_rng(91)
    ds, _ = generate(SimConfig(n=6, m=3, seed=9))
    state = OnlineState.from_dataset(
        ds, 0.5, 0.3, GAUSSIAN, refresh_every=10**9, tol=1e-12
    )
    rows = []
    for _ in range(40):
        i, j = sorted(rng.choice(6, size=2, replace=False))
        rows.append((int(i), int(j), float(rng.uniform(0, 1)), int(rng.integers(0, 2))))
        apply_observation(state, rows[-1])
        assert state.updates_since_refresh == 0
    tt, ii, jj, yy = ds.in_time_order()
    extra = np.array(rows, dtype=float)
    full = ComparisonDataset(
        6,
        np.concatenate([ii, extra[:, 0].astype(int)]),
        np.concatenate([jj, extra[:, 1].astype(int)]),
        np.concatenate([tt, extra[:, 2]]),
        np.concatenate([yy, extra[:, 3].astype(int)]),
    )
    sv = fit_scores(full, 0.5, 0.3, GAUSSIAN, tol=1e-13)
    assert np.max(np.abs(state.pi.scores - sv.scores)) < 1e-8


# -- queued corrections ----------------------------------------------------


def queue_case(n_records, n=8, seed=3):
    """A state that never refreshes on its own, and records of nonzero
    weight for it."""
    ds, _ = generate(SimConfig(n=n, m=5, seed=seed))
    state = OnlineState.from_dataset(ds, 0.5, 0.2, GAUSSIAN, refresh_every=10**9)
    rng = np.random.default_rng(seed)
    recs = []
    for _ in range(n_records):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        recs.append((int(i), int(j), float(rng.uniform()), int(rng.integers(2))))
    return state, recs


def test_queue_is_written_once_per_pending_records(monkeypatch):
    writes = []
    real = krc.online._add_outer_products
    monkeypatch.setattr(
        krc.online, "_add_outer_products", lambda G, X, Y: writes.append(len(X)) or real(G, X, Y)
    )
    state, recs = queue_case(40)
    for rec in recs:
        apply_observation(state, rec)
    assert writes == [16, 16]
    state.Ainv
    assert writes == [16, 16, 8]
    state.Ainv
    assert writes == [16, 16, 8]


def test_mid_queue_group_inverse_is_exact():
    # 37 records: two full queues written into H and five still queued.
    a, recs = queue_case(67)
    b, _ = queue_case(0)
    for rec in recs[:37]:
        apply_observation(a, rec)
        apply_observation(b, rec)
    assert a._pending == 5
    G = a.Ainv
    assert max(group_inverse_residuals(a.P, a.pi, G).values()) <= 1e-10
    fresh = group_inverse(a.P, a.pi).entries
    assert np.max(np.abs(G.entries - fresh)) <= 1e-9 * np.max(np.abs(fresh))
    # Reading A# writes the queue early; later scores move only by rounding.
    for rec in recs[37:]:
        apply_observation(a, rec)
        apply_observation(b, rec)
    assert np.max(np.abs(a.pi.scores - b.pi.scores)) <= 1e-13


def test_mid_queue_failed_fallback_leaves_state_unchanged(monkeypatch):
    a, recs = queue_case(21)
    b, _ = queue_case(0)
    for rec in recs[:20]:
        apply_observation(a, rec)
        apply_observation(b, rec)
    assert a._pending == 4

    def failing_inverse(*args, **kwargs):
        raise ConvergenceError("injected")

    monkeypatch.setattr(krc.online, "_BREAKDOWN_EPS", 10.0)
    monkeypatch.setattr(krc.online, "_inverse", failing_inverse)
    with pytest.raises(ConvergenceError):
        apply_observation(a, recs[20])
    assert a._pending == 4
    assert_same_state(a, snapshot(b))


def queue_snapshot(state):
    """The state's fields, the queue included, read without writing it."""
    k = state._pending
    return (
        state.pair_sums.copy(),
        state.P.entries.copy(),
        state.pi.scores.copy(),
        state._H.copy(),
        state._X[:k].copy(),
        state._Y[:k].copy(),
        k,
        state.updates_since_refresh,
    )


@pytest.mark.parametrize(
    "record, error",
    [
        ((3, 3, 0.5, 1), DataFormatError),
        ((0, 1, 0.5, 2), DataFormatError),
        ((0, 1, float("nan"), 1), DataFormatError),
        ((-1, 2, 0.5, 1), RosterError),
        ((0, 8, 0.5, 1), RosterError),
        ((0, 1, 0.5), TypeError),
    ],
    ids=["self", "tie", "nan-time", "negative", "past-roster", "three-fields"],
)
def test_invalid_tuple_record_raises_and_writes_nothing(record, error):
    # A tuple is checked as a ComparisonRecord is, before anything is written.
    state, recs = queue_case(5)
    for rec in recs:
        apply_observation(state, rec)
    snap = queue_snapshot(state)
    with pytest.raises(error):
        apply_observation(state, record)
    with pytest.raises(error):  # the same fields as a ComparisonRecord
        apply_observation(state, ComparisonRecord(*record))
    for got, want in zip(queue_snapshot(state), snap):
        assert np.array_equal(got, want)


# -- refresh from a running state ------------------------------------------


def test_failed_scheduled_refresh_keeps_the_record_and_retries(monkeypatch):
    # The fold succeeds, then the refresh it schedules fails: the record
    # stays folded, the error is raised, and the next record retries.
    ds, _ = generate(SimConfig(n=8, m=5, seed=3))
    a = OnlineState.from_dataset(ds, 0.5, 0.2, GAUSSIAN, refresh_every=5)
    b, recs = queue_case(6)  # never refreshes
    for rec in recs[:4]:
        apply_observation(a, rec)
        apply_observation(b, rec)
    real = krc.online._inverse

    def failing_inverse(*args, **kwargs):
        raise UpdateBreakdownError("injected")

    monkeypatch.setattr(krc.online, "_inverse", failing_inverse)
    with pytest.raises(UpdateBreakdownError, match="injected"):
        apply_observation(a, recs[4])
    apply_observation(b, recs[4])
    assert a.updates_since_refresh == 5
    for got, want in zip(queue_snapshot(a), queue_snapshot(b)):
        assert np.array_equal(got, want)
    monkeypatch.setattr(krc.online, "_inverse", real)
    apply_observation(a, recs[5])
    apply_observation(b, recs[5])
    assert a.updates_since_refresh == 0
    assert np.array_equal(a.pair_sums, b.pair_sums)
    assert np.array_equal(a.P.entries, seeded_from(a).P.entries)
    expect = stationary(a.P, tol=1e-14).scores
    assert np.max(np.abs(a.pi.scores - expect)) <= 1e-13


def seeded_from(state):
    """A state seeded, as the constructors do, from ``state``'s sums."""
    fresh = OnlineState.__new__(OnlineState)
    fresh._start(
        state.n, state.t, state.h, state.kernel, state.sigma_n,
        state.refresh_every, state.tol, state.pair_sums.copy(),
    )
    return fresh


def test_scheduled_refreshes_match_a_freshly_seeded_state():
    # A running refresh takes one inverse of A + e pi_run'; a seeded state
    # solves for pi and A# apart.  Both describe the same chain.
    ds, _ = generate(SimConfig(n=30, m=2, seed=4))
    state = OnlineState.from_dataset(ds, 0.5, 0.2, GAUSSIAN, refresh_every=25, tol=1e-13)
    rng = np.random.default_rng(4)
    refreshed = 0
    for _ in range(110):
        i, j = sorted(rng.choice(30, size=2, replace=False))
        apply_observation(state, (int(i), int(j), float(rng.uniform()), int(rng.integers(2))))
        if state.updates_since_refresh:
            continue
        refreshed += 1
        fresh = seeded_from(state)
        assert np.array_equal(state.P.entries, fresh.P.entries)
        assert np.max(np.abs(state.pi.scores - fresh.pi.scores)) <= 1e-12
        G, G_fresh = state.Ainv.entries, fresh.Ainv.entries
        assert np.max(np.abs(G - G_fresh)) <= 1e-9 * np.max(np.abs(G_fresh))
    assert refreshed == 4


def test_refresh_from_a_perturbed_running_vector_is_stationary():
    # Any c with c'e != 0 gives the stationary vector c'(A + e c')^-1.
    state, recs = queue_case(20)
    for rec in recs:
        apply_observation(state, rec)
    rng = np.random.default_rng(5)
    state.pi.scores[:] += 1e-3 * rng.uniform(-1.0, 1.0, size=state.n)
    refresh(state)
    expect = stationary(state.P, tol=1e-14).scores
    assert np.max(np.abs(state.pi.scores - expect)) <= 1e-13
    assert abs(state.pi.scores.sum() - 1.0) <= 1e-14
    assert max(group_inverse_residuals(state.P, state.pi, state.Ainv).values()) <= 1e-12


def test_refresh_residual_above_tol_raises_and_leaves_state_unchanged():
    state, recs = queue_case(20)
    for rec in recs:
        apply_observation(state, rec)
    state.tol = 0.0
    snap = snapshot(state)
    with pytest.raises(ConvergenceError, match="refresh residual") as err:
        refresh(state)
    assert err.value.residual > 0.0
    assert_same_state(state, snap)


def test_folded_state_at_500_items_matches_batch():
    # Two scheduled refreshes, then 234 records folded since the last one,
    # 10 of them still queued: the state a check right after a refresh never
    # sees.
    ds, _ = generate(SimConfig(n=500, m=1, seed=1))
    more, _ = generate(SimConfig(n=500, m=1, seed=2))
    state = OnlineState.from_dataset(ds, 0.5, 0.1, GAUSSIAN, refresh_every=500)
    tt, ii, jj, yy = (col[:1234] for col in more.in_time_order())
    for rec in zip(ii.tolist(), jj.tolist(), tt.tolist(), yy.tolist()):
        apply_observation(state, rec)
    assert state.updates_since_refresh == 234 and state._pending == 10
    base_tt, base_ii, base_jj, base_yy = ds.in_time_order()
    union = ComparisonDataset(
        500,
        np.concatenate([base_ii, ii]),
        np.concatenate([base_jj, jj]),
        np.concatenate([base_tt, tt]),
        np.concatenate([base_yy, yy]),
    )
    sv = fit_scores(union, 0.5, 0.1, GAUSSIAN, tol=1e-13)
    assert np.max(np.abs(state.pi.scores - sv.scores)) <= 1e-8
