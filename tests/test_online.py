"""Group inverse, rank-one updates, and the streaming estimator."""

import itertools

import numpy as np
import pytest

import krc.online
from krc.data import ComparisonDataset, ComparisonRecord
from krc.errors import ConnectivityError, ConvergenceError, RosterError, UpdateBreakdownError
from krc.estimator import ScoreVector, TransitionMatrix, fit_scores, stationary
from krc.kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN
from krc.online import (
    OnlineState,
    _fold_pair,
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
    # Row 0 of the uniform 2-state chain becomes [1.3, -0.3]: not a
    # probability row, and the first step leaves pi_1 = -1.5.
    P = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    pi, G = solve_state(P)
    pi_f, G_f = pi.scores.copy(), G.entries.copy()
    with pytest.raises(UpdateBreakdownError, match="intermediate"):
        _fold_pair(pi_f, G_f, 0, 1, 0.8, 0.0)
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

    def failing_stationary(*args, **kwargs):
        raise ConvergenceError("injected")

    monkeypatch.setattr(krc.online, "stationary", failing_stationary)
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
