"""The stacked MM solve: every row of a win-matrix stack is solved as
``_mm_solve`` solves it alone, whatever the other rows do."""

import numpy as np
import pytest

from krc import baselines
from krc.baselines import MMConfig, _mm_solve, _mm_stack, _win_matrix
from krc.errors import ConvergenceError
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
    shares, and row 4 is all zero, so it collapses on its first sweep."""
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
            out.append(_mm_solve(w, config, None))
        except (ConvergenceError, RuntimeError) as err:
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
    # without the likelihood trace: the same rows, an empty trace
    for fit, ref in zip(_mm_stack(win, MMConfig(), trace=False), expected):
        if isinstance(ref, Exception):
            assert str(fit) == str(ref)
        else:
            assert np.array_equal(fit[0], ref[0]) and fit[1].loglik == []
            assert fit[1].iterations == ref[1].iterations


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
    # The third sweep's likelihood of the first row still iterating is
    # reported 1.0 too low; row 0 needs more than three sweeps.
    win = _stack(5)
    expected = _expected(win, MMConfig())
    assert expected[0][1].iterations > 3
    true_loglik = baselines._pair_log_likelihood
    calls = []

    def dropping(*args):
        calls.append(args)
        ll = true_loglik(*args)
        if len(calls) == 3:
            ll[0] -= 1.0
        return ll

    monkeypatch.setattr(baselines, "_pair_log_likelihood", dropping)
    with pytest.raises(RuntimeError, match="decreased the log-likelihood") as err:
        _mm_solve(win[0], MMConfig(), None)
    expected[0] = err.value
    calls.clear()
    _assert_rows_match(_mm_stack(win, MMConfig()), expected)


def test_stack_of_nothing_but_empty_rows():
    win = np.zeros((3, 4, 4))
    for fit in _mm_stack(win, MMConfig()):
        assert isinstance(fit, ConvergenceError) and "collapsed" in str(fit)
    for fit in _mm_stack(win, MMConfig(max_iter=0)):
        assert isinstance(fit, ConvergenceError) and "in 0 iterations" in str(fit)
