"""Property tests of the streaming engine: the pair update against two
sequential rank-one updates and a direct recompute, and random streams
against a batch refit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from krc.data import ComparisonDataset
from krc.estimator import TransitionMatrix, fit_scores, stationary
from krc.kernels import GAUSSIAN
from krc.online import (
    GroupInverse,
    OnlineState,
    _fold,
    apply_observation,
    group_inverse,
    group_inverse_residuals,
    rank_one_update,
)

# Deterministic and bounded, so the suite stays reproducible and quick.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def chain_and_pair(draw):
    """A random regularized chain, a pair (i, j), and admissible moves: row
    i sends d_ij from (i, j) to its diagonal, then row j sends d_ji from
    (j, i) to its diagonal, both rows staying stochastic."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.floats(0.01, 0.5))
    M = rng.uniform(0.0, 1.0, size=(n, n))
    M /= M.sum(axis=1, keepdims=True)
    P = (1 - sigma) * M + sigma / n
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    d_ij = -P[i, i] + a * (P[i, j] + P[i, i])
    d_ji = -P[j, j] + b * (P[j, i] + P[j, j])
    return TransitionMatrix(P), i, j, d_ij, d_ji


@PROPERTY
@given(chain_and_pair())
def test_pair_update_equals_two_rank_one_updates(case):
    P, i, j, d_ij, d_ji = case
    n = P.n
    pi = stationary(P, tol=1e-14)
    G = group_inverse(P, pi)
    delta_i = np.zeros(n)
    delta_i[j], delta_i[i] = d_ij, -d_ij
    delta_j = np.zeros(n)
    delta_j[i], delta_j[j] = d_ji, -d_ji
    pi_1, G_1 = rank_one_update(pi, G, delta_i, i)
    pi_2, G_2 = rank_one_update(pi_1, G_1, delta_j, j)

    # The fold updates H = A# + e x'; A# is its projection (I - e pi') H.
    pi_f, G_f = pi.scores.copy(), G.entries
    v = np.array([d_ij, -d_ji])
    x, y = _fold(pi_f, [i, j], v, G_f[j] - G_f[i], G_f[:, [i, j]] @ v)
    H = G_f + np.outer(x, y)
    G_f = H - np.outer(np.ones(n), pi_f @ H)
    assert np.max(np.abs(pi_f - pi_2.scores)) <= 1e-12 * np.max(np.abs(pi_2.scores))
    assert np.max(np.abs(G_f - G_2.entries)) <= 1e-12 * np.max(np.abs(G_2.entries))

    # rank_one_update folds through the same code, so recompute directly too.
    M = P.entries.copy()
    M[i, j], M[i, i] = M[i, j] - d_ij, M[i, i] + d_ij
    M[j, i], M[j, j] = M[j, i] - d_ji, M[j, j] + d_ji
    P_new = TransitionMatrix(M)
    pi_d = stationary(P_new, tol=1e-14)
    G_d = group_inverse(P_new, pi_d).entries
    assert np.max(np.abs(pi_f - pi_d.scores)) <= 1e-10
    assert np.max(np.abs(G_f - G_d)) <= 1e-10 * np.max(np.abs(G_d))
    assert max(group_inverse_residuals(P_new, pi_f, GroupInverse(G_f)).values()) < 1e-10


def records(n, min_size, max_size):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    record = st.tuples(pair, st.floats(0.0, 1.0), st.integers(0, 1)).map(
        lambda r: (r[0][0], r[0][1], r[1], r[2])
    )
    return st.lists(record, min_size=min_size, max_size=max_size)


def as_dataset(n, rows):
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    return ComparisonDataset(n, *(np.array(c) for c in cols))


@st.composite
def stream_case(draw):
    n = draw(st.integers(2, 7))
    base = draw(records(n, 0, 25))
    # A state that never refreshes gets at least two full queues of records.
    refresh_every = draw(st.one_of(st.integers(1, 10), st.just(10**9)))
    stream = draw(records(n, 40 if refresh_every == 10**9 else 1, 60))
    start = draw(st.sampled_from(["empty", "dataset"]))
    return n, base, stream, start, refresh_every


@PROPERTY
@given(stream_case())
def test_random_stream_matches_batch(case):
    n, base, stream, start, refresh_every = case
    t, h = 0.5, 0.3
    if start == "empty":
        state = OnlineState(n, t, h, GAUSSIAN, refresh_every=refresh_every)
        base = []
    else:
        state = OnlineState.from_dataset(
            as_dataset(n, base), t, h, GAUSSIAN, refresh_every=refresh_every
        )
    for rec in stream:
        apply_observation(state, rec)
        assert 0 <= state.updates_since_refresh < refresh_every
    batch = fit_scores(as_dataset(n, base + stream), t, h, GAUSSIAN, tol=1e-13)
    assert np.max(np.abs(state.pi.scores - batch.scores)) < 1e-8
