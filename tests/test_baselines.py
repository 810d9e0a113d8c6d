"""Elo, pooled and weighted maximum likelihood, static spectral ranking."""

import re
from functools import partial

import numpy as np
import pytest

from krc import baselines, estimator
from krc.baselines import (
    _ASCENT_SLACK,
    EloConfig,
    MMConfig,
    MMInfo,
    _mm_stack,
    _mm_sums,
    _win_matrix,
    bt_mle_mm,
    elo_expected,
    elo_update,
    static_rank_centrality,
    wmle,
)
from krc.data import ComparisonDataset
from krc.errors import ConnectivityError, ConvergenceError, EstimationError
from krc.estimator import (
    TransitionMatrix,
    _fill_diagonal,
    _fits,
    _fitted,
    _teleport,
    _value,
    default_teleport,
    fit_scores,
    pair_fractions,
    stationary,
)
from krc.kernels import BOXCAR, GAUSSIAN
from krc.simulate import SimConfig, generate


def dataset_from_rows(n, rows):
    rows = list(rows)
    return ComparisonDataset(
        n,
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
    )


# -- Elo -------------------------------------------------------------------


def test_elo_expected_frozen():
    assert elo_expected(1500.0, 1500.0) == 0.5
    # 400-point favorite wins with probability 10/11
    assert elo_expected(1900.0, 1500.0) == pytest.approx(10 / 11, abs=1e-15)
    assert elo_expected(1500.0, 1900.0) == pytest.approx(1 / 11, abs=1e-15)


def test_elo_single_game_update():
    ratings = np.full(2, 1500.0)
    elo_update(ratings, 0, 1, 1, EloConfig(k_factor=20.0))
    # winner takes +K/2 from an even matchup
    assert ratings[1] == pytest.approx(1510.0, abs=1e-12)
    assert ratings[0] == pytest.approx(1490.0, abs=1e-12)


def test_elo_rating_conservation():
    ds, _ = generate(SimConfig(n=6, m=8, seed=4))
    ratings = np.full(ds.n, EloConfig().initial_rating)
    _, ii, jj, yy = ds.in_time_order()
    for i, j, y in zip(ii.tolist(), jj.tolist(), yy.tolist()):
        elo_update(ratings, i, j, y, EloConfig())
    assert ratings.sum() == pytest.approx(6 * 1500.0, abs=1e-8)


# -- pooled MLE ------------------------------------------------------------


def test_mle_two_item_closed_form():
    # 3 wins to 1: p = (1/4, 3/4)
    ds = dataset_from_rows(
        2, [(0, 1, 0.1, 1), (0, 1, 0.2, 1), (0, 1, 0.3, 1), (0, 1, 0.4, 0)]
    )
    sv = bt_mle_mm(ds)
    assert np.max(np.abs(sv.scores - [0.25, 0.75])) < 1e-9
    assert sv.t is None


def test_mle_loglik_monotone():
    ds, _ = generate(SimConfig(n=5, m=6, seed=12))
    sv = bt_mle_mm(ds)
    info = sv.info
    lls = np.array(info.loglik)
    assert np.all(np.diff(lls) >= -1e-8 * (1 + np.abs(lls[:-1])))
    assert info.final_change <= 1e-10
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_mle_fits_carry_their_solve_record():
    ds, _ = generate(SimConfig(n=5, m=6, seed=12))
    for sv in (bt_mle_mm(ds), wmle(ds, 0.5, 0.3, GAUSSIAN)):
        assert isinstance(sv.info, MMInfo)
        assert len(sv.info.loglik) == sv.info.iterations + 1
    assert static_rank_centrality(ds).info is None
    assert fit_scores(ds, 0.5, 0.3, GAUSSIAN).info is None


def test_mle_strict_requires_connectivity():
    # items 0 and 1 trade wins; item 2 loses to both and never wins
    ds = dataset_from_rows(
        3, [(0, 1, 0.1, 1), (0, 1, 0.2, 0), (0, 2, 0.3, 0), (1, 2, 0.4, 0)]
    )
    with pytest.raises(ConnectivityError, match="MLE does not exist"):
        bt_mle_mm(ds)
    sv = bt_mle_mm(ds, strict=False)
    assert sv.scores[2] == 0.0
    # games against the pinned item are uninformative on its face, so the
    # remaining mass splits by the 0-1 record alone
    assert np.max(np.abs(sv.scores[:2] - 0.5)) < 1e-9
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_mle_convergence_error_on_tiny_budget():
    ds, _ = generate(SimConfig(n=5, m=6, seed=12))
    with pytest.raises(ConvergenceError):
        bt_mle_mm(ds, MMConfig(tol=1e-14, max_iter=2))


# -- weighted MLE ----------------------------------------------------------


def test_wmle_flat_weights_match_pooled():
    # every pair has the same count, so unit-mass-per-pair rescaling
    # leaves the maximizer unchanged
    ds, _ = generate(SimConfig(n=5, m=10, seed=21))
    pooled = bt_mle_mm(ds)
    weighted = wmle(ds, 0.5, 50.0, BOXCAR)
    assert np.max(np.abs(weighted.scores - pooled.scores)) < 1e-8
    assert weighted.t == 0.5


def test_wmle_tracks_local_outcomes():
    # item 1 beats 0 early, 0 beats 1 late; 2 loses throughout
    rows = [(0, 1, t, 1) for t in np.linspace(0.0, 0.4, 8)]
    rows += [(0, 1, t, 0) for t in np.linspace(0.6, 1.0, 8)]
    rows += [(0, 2, t, 0) for t in np.linspace(0.0, 1.0, 8)]
    rows += [(1, 2, t, 0) for t in np.linspace(0.0, 1.0, 8)]
    ds = dataset_from_rows(3, rows)
    early = wmle(ds, 0.15, 0.15, GAUSSIAN, strict=False)
    late = wmle(ds, 0.85, 0.15, GAUSSIAN, strict=False)
    assert early.scores[1] > early.scores[0]
    assert late.scores[0] > late.scores[1]
    assert early.scores[2] == 0.0


def test_wmle_strict_connectivity_gate():
    rows = [(0, 1, 0.1, 1), (1, 2, 0.1, 0), (0, 2, 0.9, 0)]
    ds = dataset_from_rows(3, rows)
    with pytest.raises(ConnectivityError):
        wmle(ds, 0.1, 0.05, GAUSSIAN)


def test_wmle_strict_checks_the_rounded_shares():
    # the record graph at t=0.5 is strongly connected, but item 0's share
    # rounds to 0, so the share matrix the solver gets is not
    ds = dataset_from_rows(2, [(0, 1, 0.5, 1), (0, 1, 0.5, 1), (0, 1, 0.59, 0)])
    with pytest.raises(ConnectivityError, match="MLE does not exist"):
        wmle(ds, 0.5, 0.01, GAUSSIAN, strict=True)
    sv = wmle(ds, 0.5, 0.01, GAUSSIAN, strict=False)
    assert sv.t == 0.5 and sv.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_wmle_bandwidth_validation():
    ds = dataset_from_rows(2, [(0, 1, 0.1, 1), (0, 1, 0.2, 0)])
    with pytest.raises(ValueError):
        wmle(ds, 0.5, 0.0, GAUSSIAN)


def test_strict_raises_exactly_when_an_item_never_won():
    # One record per pair of 5 items: at some seeds an item never wins, and
    # at seed 1 the items with wins are not strongly connected.
    seen = set()
    for seed in range(8):
        ds, _ = generate(SimConfig(n=5, m=1, seed=seed))
        fits = [(partial(bt_mle_mm, ds), _loop_pooled_win(ds))]
        for t in (0.2, 0.7):
            idx_i, idx_j, frac = pair_fractions(ds, t, 0.1, GAUSSIAN)
            fits.append((partial(wmle, ds, t, 0.1, GAUSSIAN),
                         _win_matrix(5, idx_i, idx_j, frac, 1.0 - frac)))
        for fit, win in fits:
            try:
                loose = fit(strict=False)
                loose_info = loose.info
            except ConnectivityError as err:
                seen.add("no MLE")
                with pytest.raises(ConnectivityError, match=re.escape(str(err))):
                    fit(strict=True)
                continue
            if win.sum(axis=1).all():
                seen.add("all won")
                sv = fit(strict=True)
                info = sv.info
                assert sv.t == loose.t and np.array_equal(sv.scores, loose.scores)
                assert info == loose_info
            else:
                seen.add("one never won")
                with pytest.raises(ConnectivityError, match="an item never won"):
                    fit(strict=True)
    assert seen == {"no MLE", "all won", "one never won"}


def test_wmle_points_are_the_curve_points():
    ds, _ = generate(SimConfig(n=6, m=4, seed=3))
    grid = np.linspace(0.05, 0.95, 13)
    curve = _fitted(ds, grid, 0.2, GAUSSIAN, _mm_sums, MMConfig(), False)
    fits = [fit for _, fit in _fits(ds, grid, 0.2, GAUSSIAN, _mm_sums, MMConfig(), False)]
    for t, sv, fit in zip(grid.tolist(), curve, fits):
        info = fit.info
        one = wmle(ds, t, 0.2, GAUSSIAN, strict=False)
        one_info = one.info
        assert one.t == sv.t == fit.t == t
        assert np.array_equal(one.scores, sv.scores)
        assert np.array_equal(one.scores, fit.scores)
        assert one_info == info and len(info.loglik) == info.iterations + 1


def test_strict_wmle_without_mass_raises_estimation_error():
    ds = dataset_from_rows(2, [(0, 1, 0.1, 1), (0, 1, 0.2, 0)])
    for strict in (True, False):
        with pytest.raises(EstimationError, match="zero kernel mass"):
            wmle(ds, 0.9, 0.05, BOXCAR, strict=strict)


# -- static spectral ranking -----------------------------------------------


def test_static_rc_frozen_two_item():
    # 3 of 4 wins, no teleport: chain [[5/8, 3/8], [1/8, 7/8]]
    ds = dataset_from_rows(
        2, [(0, 1, 0.1, 1), (0, 1, 0.2, 1), (0, 1, 0.3, 1), (0, 1, 0.4, 0)]
    )
    sv = static_rank_centrality(ds, sigma_n=0.0, tol=1e-13)
    assert np.max(np.abs(sv.scores - [0.25, 0.75])) < 1e-12
    assert sv.t is None


def test_static_rc_agrees_with_mle_on_two_items():
    # with two items both estimators reduce to the win-odds ratio
    ds = dataset_from_rows(
        2, [(0, 1, t, y) for t, y in zip(np.linspace(0, 1, 10), [1, 1, 0, 1, 0, 1, 1, 1, 0, 1])]
    )
    rc = static_rank_centrality(ds, sigma_n=0.0, tol=1e-13)
    ml = bt_mle_mm(ds)
    assert np.max(np.abs(rc.scores - ml.scores)) < 1e-9


def test_static_rc_sigma_zero_needs_connectivity():
    ds = dataset_from_rows(3, [(0, 1, 0.1, 1), (1, 2, 0.2, 1)])
    with pytest.raises(ConnectivityError):
        static_rank_centrality(ds, sigma_n=0.0)
    sv = static_rank_centrality(ds)  # default teleport 1/n keeps it alive
    assert np.min(sv.scores) > 0.0


def test_static_rc_default_teleport_is_recorded():
    ds, _ = generate(SimConfig(n=4, m=6, seed=2))
    sv = static_rank_centrality(ds)
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-12)


# -- references: the dense MM solver and the per-pair loops ---------------
# The two functions below are Hunter's MM as a dense solver, kept verbatim
# as the reference for the Newton `_mm_stack`; the loops after them are the
# old pooled-count paths of bt_mle_mm and static_rank_centrality.


def _log_likelihood(win: np.ndarray, p: np.ndarray) -> float:
    """Weighted preference log-likelihood with the 0 log 0 = 0 convention."""
    W = win.sum(axis=1)
    pos = W > 0
    with np.errstate(divide="ignore"):
        logs = np.log(p[pos])
    ll = float(np.sum(W[pos] * logs))
    N = win + win.T
    iu = np.triu_indices_from(N, k=1)
    mask = N[iu] > 0
    psum = (p[:, None] + p[None, :])[iu][mask]
    ll -= float(np.sum(N[iu][mask] * np.log(psum)))
    return ll


def _dense_mm_solve(
    win: np.ndarray, config: MMConfig, init: np.ndarray | None
) -> tuple[np.ndarray, MMInfo]:
    """Iterate Hunter's update to a fixed point on the simplex.

    ``win[a, b]`` is the (possibly fractional) win mass of a over b.  Items
    with zero total wins are pinned at score zero, which is where the
    likelihood pushes them anyway.
    """
    n = win.shape[0]
    N = win + win.T
    W = win.sum(axis=1)
    if init is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(init, dtype=float).copy()
        if p.shape != (n,) or np.min(p) < 0 or p.sum() <= 0:
            raise ValueError("init must be a nonnegative vector with positive sum")
        p = p / p.sum()
    info = MMInfo(iterations=0, final_change=np.inf)
    prev_ll = -np.inf
    for it in range(config.max_iter):
        psum = p[:, None] + p[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where((N > 0) & (psum > 0), N / psum, 0.0)
        denom = contrib.sum(axis=1)
        new = np.where((W > 0) & (denom > 0), W / np.where(denom > 0, denom, 1.0), 0.0)
        s = new.sum()
        if s <= 0:
            raise ConvergenceError("MM update collapsed to the zero vector")
        new /= s
        change = float(np.max(np.abs(new - p)))
        p = new
        ll = _log_likelihood(win, p)
        info.loglik.append(ll)
        if ll < prev_ll - _ASCENT_SLACK * (1.0 + abs(ll)):
            raise RuntimeError(
                f"MM iteration decreased the log-likelihood ({prev_ll} -> {ll})"
            )
        prev_ll = ll
        info.iterations = it + 1
        info.final_change = change
        if change <= config.tol:
            return p, info
    raise ConvergenceError(
        f"MM failed to reach tol {config.tol} in {config.max_iter} iterations "
        f"(last change {info.final_change:.3e})",
        residual=info.final_change,
    )


def _loop_pooled_win(dataset):
    win = np.zeros((dataset.n, dataset.n))
    for (i, j), _, outs in dataset.pairs():
        win[j, i] += float(np.sum(outs == 1))
        win[i, j] += float(np.sum(outs == 0))
    return win


def _loop_static_chain(dataset):
    n = dataset.n
    P = np.zeros((n, n))
    for (i, j), _, outs in dataset.pairs():
        frac = float(np.mean(outs))
        P[i, j] = frac / n
        P[j, i] = (1.0 - frac) / n
    _fill_diagonal(P)
    return P


def _seeded_win(n, seed):
    ds, _ = generate(SimConfig(n=n, m=4, seed=seed))
    return _loop_pooled_win(ds)


def _mm_cases():
    """(label, win, init): seeded counts, fractional wmle shares, a pinned
    item, a zero entry in init, and the 2-item closed form."""
    cases = [
        (f"counts-{n}", _seeded_win(n, seed), None)
        for n, seed in ((5, 1), (8, 2), (12, 3))
    ]
    ds, _ = generate(SimConfig(n=6, m=12, seed=31))
    idx_i, idx_j, frac = pair_fractions(ds, 0.4, 0.2, GAUSSIAN)
    cases.append(("wmle-shares", _win_matrix(6, idx_i, idx_j, frac, 1.0 - frac), None))
    pinned = _seeded_win(6, 4)
    pinned[2, :] = 0.0  # item 2 never wins
    cases.append(("pinned", pinned, None))
    # items 1 and 3 start at zero, so their own pair adds nothing at first
    zero_init = np.array([0.3, 0.0, 0.2, 0.0, 0.25, 0.25])
    cases.append(("zero-init", _seeded_win(6, 5), zero_init))
    cases.append(("two-item", np.array([[0.0, 1.0], [3.0, 0.0]]), None))
    return [pytest.param(*case, id=case[0]) for case in cases]


def _solve_one(win, config):
    """One win matrix's (scores, MMInfo), solved as a stack of one."""
    return _value(_mm_stack(win[None], config)[0])


@pytest.mark.parametrize("label, win, init", _mm_cases())
def test_pair_list_mm_matches_dense_reference(label, win, init):
    p, info = _solve_one(win, MMConfig())
    p_ref, info_ref = _dense_mm_solve(win, MMConfig(), init)
    assert np.max(np.abs(p - p_ref)) <= 1e-9
    lls = np.asarray(info.loglik)
    assert np.all(np.diff(lls) >= -_ASCENT_SLACK * (1.0 + np.abs(lls[1:])))
    assert lls[-1] == pytest.approx(info_ref.loglik[-1], rel=1e-9, abs=1e-9)
    assert info.final_change <= MMConfig().tol
    if label == "two-item":
        assert np.max(np.abs(p - [0.25, 0.75])) < 1e-9
    if label == "pinned":
        assert p[2] == 0.0 and p_ref[2] == 0.0


def _relative_score_residual(win, p):
    """max_i |W_i - sum_j N_ij p_i / (p_i + p_j)| / W_i over the items with
    wins, with the pairs never compared left out."""
    W = win.sum(axis=1)
    N = win + win.T
    with np.errstate(invalid="ignore"):
        share = np.where(N > 0, p[:, None] / (p[:, None] + p[None, :]), 0.0)
    won = W > 0
    return np.max(np.abs(W - (N * share).sum(axis=1))[won] / W[won])


@pytest.mark.parametrize("label, win, init", _mm_cases())
def test_mle_meets_the_score_bound_at_the_mm_fixed_point(label, win, init):
    p, info = _solve_one(win, MMConfig())
    assert info.final_change <= MMConfig().tol
    assert _relative_score_residual(win, p) <= MMConfig().tol
    p_ref, _ = _dense_mm_solve(win, MMConfig(tol=1e-14, max_iter=100_000), init)
    assert np.max(np.abs(p - p_ref)) <= 1e-9
    assert info.iterations == len(info.loglik) - 1  # the start, then each step


@pytest.mark.parametrize("tiny", [1e-20, 1e-200])
def test_mle_resolves_a_tiny_win_share(tiny):
    # Item 0 wins a share ``tiny`` of its unit games with items 1 and 2, who
    # split theirs: p_0 / p_1 = tiny / (1 - tiny), far below rounding of 1.
    win = np.array([[0.0, tiny, tiny], [1 - tiny, 0.0, 0.5], [1 - tiny, 0.5, 0.0]])
    p, info = _solve_one(win, MMConfig())
    assert _relative_score_residual(win, p) <= MMConfig().tol
    assert p[0] / p[1] == pytest.approx(tiny / (1 - tiny), rel=1e-9)
    assert p[1] == pytest.approx(p[2], rel=1e-12) and info.iterations <= 10


@pytest.mark.parametrize("seed", [3, 8])
def test_pooled_counts_bitwise_match_pair_loops(monkeypatch, seed):
    ds, _ = generate(SimConfig(n=7, m=9, seed=seed))
    seen = {}

    def spy_stack(win, config):
        seen["win"] = win[0]
        return mm_stack(win, config)

    def spy_teleport(P, sigma):  # the raw pooled chain, before the teleport
        (seen["P"],) = P.copy()
        return teleport(P, sigma)

    teleport, mm_stack = estimator._teleport, baselines._mm_stack
    monkeypatch.setattr(baselines, "_mm_stack", spy_stack)
    monkeypatch.setattr(estimator, "_teleport", spy_teleport)
    ml = bt_mle_mm(ds)
    rc = static_rank_centrality(ds)
    assert np.array_equal(seen["win"], _loop_pooled_win(ds))
    P_ref = _loop_static_chain(ds)
    assert np.array_equal(seen["P"], P_ref)
    monkeypatch.undo()
    ref_rc = stationary(TransitionMatrix(_teleport(P_ref.copy(), default_teleport(ds.n))))
    assert np.array_equal(rc.scores, ref_rc.scores)
    ref_ml, _ = _dense_mm_solve(_loop_pooled_win(ds), MMConfig(), None)
    assert np.max(np.abs(ml.scores - ref_ml)) <= 1e-9


def test_mm_ascent_check_fires(monkeypatch):
    # every likelihood after the start's is reported 10.0 too low, so no
    # step length ascends within the halving budget
    true_loglik = baselines._pair_log_likelihood
    calls = []

    def dropping(*args):
        calls.append(args)
        return true_loglik(*args) - (10.0 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(baselines, "_pair_log_likelihood", dropping)
    message = r"every Newton step length decreased the log-likelihood \(.+ -> .+\)"
    with pytest.raises(RuntimeError, match=message):
        _solve_one(_seeded_win(5, 1), MMConfig())
    assert len(calls) == 1 + baselines._HALVINGS + 1


def test_mm_fails_a_stalled_row_at_once():
    # Item 0 wins with the smallest subnormal mass, so its score underflows
    # and every accepted step leaves the scores bitwise unchanged.
    win = np.array([[0.0, 5e-324, 5e-324], [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
    with pytest.raises(ConvergenceError, match="stalled") as info:
        _solve_one(win, MMConfig())
    assert info.value.residual == 1.0


def test_mm_zero_win_collapses():
    with pytest.raises(ConvergenceError, match="collapsed to the zero vector"):
        _solve_one(np.zeros((3, 3)), MMConfig())
