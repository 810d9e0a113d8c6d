"""The stacked MLE solve: every row of a win-matrix stack is solved as
``_mm_solve`` solves it alone, whatever the other rows do."""

import numpy as np
import pytest

from krc import baselines
from krc.baselines import MMConfig, _mm_solve, _mm_stack, _win_matrix
from krc.errors import ConnectivityError, ConvergenceError
from krc.estimator import pair_fractions
from krc.kernels import GAUSSIAN
from krc.simulate import SimConfig, generate


def _counts(rng, n):
    win = rng.integers(0, 4, (n, n)).astype(float)
    np.fill_diagonal(win, 0.0)
    return win


def _stack(seed, n=6):
    """Rows 0, 1, 3 and 5 are random counts, each with a pair never
    compared; item 2 never wins in row 5.  Row 2 holds fractional wmle
    shares, and row 4 is all zero, so it collapses."""
    rng = np.random.default_rng(seed)
    counts = [_counts(rng, n) for _ in range(4)]
    for win in counts:
        a, b = rng.choice(n, 2, replace=False)
        win[a, b] = win[b, a] = 0.0
    counts[3][2, :] = 0.0
    ds, _ = generate(SimConfig(n=n, m=12, seed=seed))
    idx_i, idx_j, frac = pair_fractions(ds, 0.4, 0.2, GAUSSIAN)
    shares = _win_matrix(n, idx_i, idx_j, frac, 1.0 - frac)
    return np.stack(counts[:2] + [shares, counts[2], np.zeros((n, n)), counts[3]])


def _expected(win, config):
    """``_mm_solve``'s scores and info for each row, or the error it raises."""
    out = []
    for w in win:
        try:
            out.append(_mm_solve(w, config))
        except (ConnectivityError, ConvergenceError, RuntimeError) as err:
            out.append(err)
    return out


def _assert_rows_match(got, expected):
    assert len(got) == len(expected)
    for fit, ref in zip(got, expected):
        if isinstance(ref, Exception):
            assert type(fit) is type(ref) and str(fit) == str(ref)
            continue
        (p, info), (p_ref, info_ref) = fit, ref
        assert np.array_equal(p, p_ref)
        assert info.iterations == info_ref.iterations
        assert info.final_change == info_ref.final_change
        assert info.loglik == info_ref.loglik


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stack_rows_match_one_row_solves(seed):
    win = _stack(seed)
    expected = _expected(win, MMConfig())
    _assert_rows_match(_mm_stack(win, MMConfig()), expected)
    assert isinstance(expected[4], ConvergenceError)
    assert "collapsed" in str(expected[4])
    assert expected[5][0][2] == 0.0  # pinned
    assert sum(isinstance(e, Exception) for e in expected) == 1


def test_stack_rows_that_run_out_of_iterations_fail_alone():
    win = _stack(4)
    iterations = [fit[1].iterations for fit in _expected(win, MMConfig())
                  if not isinstance(fit, Exception)]
    config = MMConfig(max_iter=int(np.median(iterations)))
    expected = _expected(win, config)
    out_of_iterations = [
        e for e in expected if isinstance(e, ConvergenceError) and "reach tol" in str(e)
    ]
    assert 0 < len(out_of_iterations) < len(iterations)
    _assert_rows_match(_mm_stack(win, config), expected)


def test_stack_ascent_check_fails_its_row_alone(monkeypatch):
    # Every likelihood of row 0 after its start is reported 10.0 too low, so
    # none of its step lengths ascends within the halving budget; the row is
    # told apart from the others by its win masses.
    win = _stack(5)
    expected = _expected(win, MMConfig())
    assert expected[0][1].iterations > 1
    true_loglik = baselines._pair_log_likelihood
    row_0 = win[0].sum(axis=1)
    calls = []

    def dropping(W, *args):
        ll = true_loglik(W, *args)
        calls.append(W)
        if len(calls) > 1:
            ll[(W == row_0).all(axis=1)] -= 10.0
        return ll

    monkeypatch.setattr(baselines, "_pair_log_likelihood", dropping)
    with pytest.raises(RuntimeError, match="decreased the log-likelihood") as err:
        _mm_solve(win[0], MMConfig())
    assert len(calls) == 1 + baselines._HALVINGS + 1
    expected[0] = err.value
    calls.clear()
    _assert_rows_match(_mm_stack(win, MMConfig()), expected)


def test_stack_row_without_interior_mle_fails_before_any_step(monkeypatch):
    # Items 3-5 never beat items 0-2, so the win graph over the items with
    # wins is not strongly connected: no maximizer keeps them all positive.
    rng = np.random.default_rng(6)
    split = _counts(rng, 6) + 1.0
    np.fill_diagonal(split, 0.0)
    split[3:, :3] = 0.0
    win = _stack(6)
    with_split = np.concatenate((win[:2], split[None], win[2:]))
    seen = []
    true_loglik = baselines._pair_log_likelihood

    def spy(W, *args):
        seen.append(W.copy())
        return true_loglik(W, *args)

    monkeypatch.setattr(baselines, "_pair_log_likelihood", spy)
    got = _mm_stack(with_split, MMConfig())
    assert isinstance(got[2], ConnectivityError)
    assert "not strongly connected" in str(got[2])
    # its likelihood was never taken: it left before the start's
    assert not any((W == split.sum(axis=1)).all(axis=1).any() for W in seen)
    monkeypatch.undo()
    with pytest.raises(ConnectivityError):
        _mm_solve(split, MMConfig())
    _assert_rows_match(got[:2] + got[3:], _expected(win, MMConfig()))


def test_stack_row_with_a_singular_newton_system_fails_alone():
    # Item 0 wins the smallest float's share of its games, so its Newton
    # weights underflow to 0 and its row's linear system is singular.
    tiny = 5e-324
    singular = np.zeros((6, 6))
    singular[:3, :3] = [[0.0, tiny, tiny], [1 - tiny, 0.0, 0.3], [1 - tiny, 0.7, 0.0]]
    with pytest.raises(ConvergenceError, match="singular"):
        _mm_solve(singular, MMConfig())
    win = _stack(7)
    got = _mm_stack(np.concatenate((win[:1], singular[None], win[1:])), MMConfig())
    assert isinstance(got[1], ConvergenceError) and "singular" in str(got[1])
    _assert_rows_match(got[:1] + got[2:], _expected(win, MMConfig()))


def test_stack_of_nothing_but_empty_rows():
    win = np.zeros((3, 4, 4))
    for fit in _mm_stack(win, MMConfig()):
        assert isinstance(fit, ConvergenceError) and "collapsed" in str(fit)
    for fit in _mm_stack(win, MMConfig(max_iter=0)):
        assert isinstance(fit, ConvergenceError) and "in 0 iterations" in str(fit)


def _stalled(n=3):
    """Item 0 wins the smallest subnormal mass, so its score underflows and
    every accepted Newton step leaves the scores bitwise unchanged."""
    win = np.zeros((n, n))
    win[:3, :3] = [[0.0, 5e-324, 5e-324], [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]]
    return win


def test_stack_stalled_row_fails_alone():
    with pytest.raises(ConvergenceError, match="stalled"):
        _mm_solve(_stalled(6), MMConfig())
    win = _stack(8)
    got = _mm_stack(np.concatenate((win[:1], _stalled(6)[None], win[1:])), MMConfig())
    assert isinstance(got[1], ConvergenceError) and "stalled" in str(got[1])
    _assert_rows_match(got[:1] + got[2:], _expected(win, MMConfig()))


def test_stalled_row_reports_its_own_residual_after_a_row_leaves():
    # The even row starts at its MLE and leaves before any step, so the
    # stalled row moves to the front of the per-row arrays.
    even = 1.0 - np.eye(3)
    with pytest.raises(ConvergenceError) as alone:
        _mm_solve(_stalled(), MMConfig())
    got = _mm_stack(np.stack((even, _stalled())), MMConfig())
    assert got[0][1].iterations == 0 and got[0][1].final_change == 0.0
    assert isinstance(got[1], ConvergenceError) and str(got[1]) == str(alone.value)
    assert got[1].residual == alone.value.residual == 1.0
