"""Model-based test of the online state: a Hypothesis state machine folds
valid, zero-weight and invalid records, reads A#, forces refreshes and
residual checks, and folds through breakdown refreshes that succeed or
fail, against a model that is the list of the records folded so far."""

from contextlib import contextmanager

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import krc.online
from krc.data import ComparisonDataset, ComparisonRecord
from krc.errors import DataFormatError, RosterError, UpdateBreakdownError
from krc.estimator import _chain_stack, fit_scores
from krc.kernels import EPANECHNIKOV, GAUSSIAN
from krc.online import (
    GroupInverse,
    OnlineState,
    apply_observation,
    group_inverse_residuals,
    refresh,
)

N, T, H = 5, 0.5, 0.3

# Every pair once won by each side, within the compact kernel's support: a
# sigma_n=0 chain of these records is strongly connected.
BASE = [
    (i, j, T + 0.1 * (k % 3 - 1), y)
    for k, (i, j) in enumerate((i, j) for i in range(N) for j in range(i + 1, N))
    for y in (0, 1)
]

PAIRS = st.tuples(st.integers(0, N - 1), st.integers(1, N - 1)).map(
    lambda p: (p[0], (p[0] + p[1]) % N)
)
# Inside 0.9 h of T every kernel gives weight; beyond 40 h none does.
VALID = st.tuples(PAIRS, st.floats(T - 0.9 * H, T + 0.9 * H), st.integers(0, 1)).map(
    lambda r: (*r[0], r[1], r[2])
)
FAR = st.tuples(PAIRS, st.sampled_from([T - 50 * H, T + 40 * H]), st.integers(0, 1)).map(
    lambda r: (*r[0], r[1], r[2])
)
INVALID = st.sampled_from([
    ((3, 3, T, 1), DataFormatError),
    ((0, 1, T, 2), DataFormatError),
    ((0, 1, float("nan"), 1), DataFormatError),
    ((-1, 2, T, 1), RosterError),
    ((0, N, T, 1), RosterError),
    ((0, 1, T), TypeError),
])


def as_dataset(rows):
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    return ComparisonDataset(N, *(np.array(c) for c in cols))


def injected(*args, **kwargs):
    raise UpdateBreakdownError("injected")


@contextmanager
def patched(**values):
    """Set attributes of ``krc.online`` for the duration of the block."""
    old = {name: getattr(krc.online, name) for name in values}
    for name, value in values.items():
        setattr(krc.online, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(krc.online, name, value)


def fields(state):
    """Every array and counter of the state, the queue included, read
    without writing the queue into H."""
    k = state._pending
    return (
        state.pair_sums.copy(), state.P.entries.copy(), state.pi.scores.copy(),
        state._H.copy(), state._X[:k].copy(), state._Y[:k].copy(),
        k, state.updates_since_refresh, state.checks, state.refreshes,
    )


def assert_same_fields(a, b):
    assert len(a) == len(b)
    for got, want in zip(a, b):
        assert np.array_equal(got, want)


class OnlineMachine(RuleBasedStateMachine):
    @initialize(
        kernel=st.sampled_from([GAUSSIAN, EPANECHNIKOV]),
        start=st.sampled_from([("empty", None), ("seeded", None), ("seeded", 0.0)]),
        refresh_every=st.sampled_from([1, 4, 10**9]),
    )
    def start(self, kernel, start, refresh_every):
        seeded, sigma = start
        self.kernel = kernel
        # The model: the records folded so far, the seed's first.
        self.records = list(BASE) if seeded == "seeded" else []
        self.state = OnlineState.from_dataset(
            as_dataset(self.records), T, H, kernel, sigma_n=sigma,
            refresh_every=refresh_every,
        )
        self.seed_sums = self.state.pair_sums.copy()
        self.folded = len(self.records)
        # Whether no record was folded since the last refresh, and whether
        # the state was refreshed, or passed a check, since its seeding
        # solve, which is only as exact as its tol.
        self.fresh, self.exact = True, False
        self.refreshes = self.state.refreshes

    def took(self, record):
        """Add a folded record to the model, and note whether its fold
        ended with a refresh, which the ``refreshes`` counter tells."""
        self.records.append(record)
        self.fresh = self.state.refreshes != self.refreshes
        self.exact |= self.fresh
        self.refreshes = self.state.refreshes

    def model_sums(self):
        """The seed's sums plus each record folded since, in order, by the
        fold's own arithmetic."""
        sums = self.seed_sums.copy()
        for i, j, t_k, y in self.records[self.folded:]:
            if i > j:
                i, j, y = j, i, 1 - y
            w = float(self.kernel.weight(T, t_k, H))
            sums[i, j], sums[j, i] = sums.item(i, j) + w, sums.item(j, i) + w * y
        return sums

    @rule(record=VALID, as_tuple=st.booleans())
    def fold(self, record, as_tuple):
        apply_observation(self.state, record if as_tuple else ComparisonRecord(*record))
        self.took(record)

    @rule(record=FAR)
    def fold_zero_weight(self, record):
        before = fields(self.state)
        apply_observation(self.state, record)
        assert_same_fields(fields(self.state), before)

    @rule(case=INVALID)
    def fold_invalid(self, case):
        record, error = case
        before = fields(self.state)
        try:
            apply_observation(self.state, record)
        except error:
            pass
        else:
            raise AssertionError(f"{record} was folded")
        assert_same_fields(fields(self.state), before)

    @rule(record=VALID)
    def fold_through_a_breakdown(self, record):
        with patched(_BREAKDOWN_EPS=10.0):
            apply_observation(self.state, record)
        self.took(record)
        assert self.state.updates_since_refresh == 0 and self.fresh

    @rule(record=VALID)
    def fold_through_a_failed_breakdown(self, record):
        before = fields(self.state)
        with patched(_BREAKDOWN_EPS=10.0, _inverse=injected):
            try:
                apply_observation(self.state, record)
            except UpdateBreakdownError as err:
                assert str(err) == "injected"
            else:
                raise AssertionError("the breakdown refresh did not fail")
        assert_same_fields(fields(self.state), before)

    @rule(record=VALID)
    def fold_then_fail_the_scheduled_refresh(self, record):
        state = self.state
        due = state.updates_since_refresh + 1 >= state.refresh_every
        checks = state.checks
        with patched(_inverse=injected):
            try:
                apply_observation(state, record)
            except UpdateBreakdownError as err:
                # Only a due check that fails calls for a refresh, and a
                # state exact since a refresh passes its checks.
                assert due and not self.exact and str(err) == "injected"
                assert state.updates_since_refresh >= state.refresh_every
            else:
                assert state.updates_since_refresh == 0 or not due
        assert state.checks == checks + due
        # Folded either way; a failed refresh is retried by the next record.
        self.took(record)

    @rule(record=VALID)
    def fold_through_a_due_check(self, record):
        # Whatever refresh_every is, this fold checks the state.  A state
        # exact since a refresh passes, and a check leaves it exact.
        state = self.state
        state.updates_since_refresh = max(
            state.updates_since_refresh, state.refresh_every - 1
        )
        checks, refreshes = state.checks, state.refreshes
        apply_observation(state, record)
        assert state.checks == checks + 1 and state.updates_since_refresh == 0
        assert state.refreshes == refreshes or not self.exact
        self.took(record)
        self.exact = True

    @rule()
    def read_group_inverse(self):
        expect = self.group_inverse()
        G = self.state.Ainv
        assert self.state._pending == 0
        scale = np.max(np.abs(expect.entries))
        assert np.max(np.abs(G.entries - expect.entries)) <= 1e-12 * scale

    @rule()
    def force_refresh(self):
        refresh(self.state)
        assert self.state.updates_since_refresh == 0
        assert self.state.refreshes == self.refreshes + 1
        self.fresh = self.exact = True
        self.refreshes = self.state.refreshes

    def group_inverse(self):
        """A# = (I - e pi') (H + the queue), without writing the queue."""
        k, state = self.state._pending, self.state
        H = state._H + state._X[:k].T @ state._Y[:k]
        return GroupInverse(H - state.pi.scores @ H)

    @invariant()
    def sums_are_the_models(self):
        assert np.array_equal(self.state.pair_sums, self.model_sums())

    @invariant()
    def refreshed_chain_is_the_batch_chain(self):
        if not self.fresh:
            return
        sums = self.model_sums()
        i, j = np.triu_indices(N, 1)
        (chain,), _ = _chain_stack(
            N, i, j, [T], sums[i, j][None], sums[j, i][None], self.state.sigma_n
        )
        assert np.array_equal(self.state.P.entries.view(np.int64), chain.view(np.int64))

    @invariant()
    def scores_are_the_batch_fits(self):
        pi = self.state.pi.scores
        assert pi.min() > 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12
        if self.model_sums().any():
            expect = fit_scores(
                as_dataset(self.records), T, H, self.kernel, self.state.sigma_n, tol=1e-14
            ).scores
        else:
            expect = np.full(N, 1.0 / N)
        assert np.max(np.abs(pi - expect)) <= 1e-9

    @invariant()
    def group_inverse_axioms_hold(self):
        residuals = group_inverse_residuals(self.state.P, self.state.pi, self.group_inverse())
        assert max(residuals.values()) <= 1e-9


OnlineMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=40, stateful_step_count=25,
    database=None,
)
TestOnlineMachine = OnlineMachine.TestCase
