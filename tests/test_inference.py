"""Normal quantiles, asymptotic precision/bias, confidence intervals."""

import numpy as np
import pytest
import scipy.stats
import sympy as sp

from krc.data import ComparisonDataset
from krc.errors import EstimationError, InferenceError
from krc.estimator import ScoreVector, build_ideal_transition, fit_scores
from krc.inference import (
    IntervalEstimate,
    diagonal_approx_error,
    diagonal_group_inverse_approx,
    expansion_diagnostic,
    normal_quantile,
    oracle_beta,
    pairwise_win_ci,
    plug_in_alpha,
    score_ci,
)
from krc.kernels import BOXCAR, GAUSSIAN
from krc.online import group_inverse
from krc.simulate import SimConfig, generate


# -- normal quantile -------------------------------------------------------


def test_normal_quantile_vs_scipy():
    ps = np.concatenate(
        [
            [1e-12, 1e-8, 1e-4, 0.02425, 0.025],
            np.linspace(0.01, 0.99, 197),
            [0.975, 0.97575, 0.9999, 1 - 1e-8, 1 - 1e-12],
        ]
    )
    for p in ps:
        got = normal_quantile(float(p))
        want = float(scipy.stats.norm.ppf(p))
        assert got == pytest.approx(want, abs=1e-12), p


def test_normal_quantile_frozen_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-12)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


# -- precision (alpha) -----------------------------------------------------


def balanced_pair_dataset(m, spread=0.4):
    ii = np.zeros(m, dtype=int)
    jj = np.ones(m, dtype=int)
    tt = np.linspace(0.5 - spread, 0.5 + spread, m)
    yy = np.tile([1, 0], m // 2 + 1)[:m]
    return ComparisonDataset(2, ii, jj, tt, yy)


def test_alpha_two_item_closed_form():
    # pi = (1/2, 1/2): alpha_i = sqrt(M h / int K^2) exactly
    m, h = 40, 0.2
    ds = balanced_pair_dataset(m)
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    params = plug_in_alpha(pi_hat, ds, 0.5, h, GAUSSIAN)
    expect = np.sqrt(m * h / GAUSSIAN.squared_integral)
    assert params.alpha == pytest.approx([expect, expect], abs=1e-12)


def test_alpha_effective_counts_flat_weights():
    # boxcar weights are flat 0.5 inside the window, so realized mass
    # equals count * h when h = 0.5 and both variants coincide exactly
    m, h = 30, 0.5
    ds = balanced_pair_dataset(m, spread=0.3)
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    nominal = plug_in_alpha(pi_hat, ds, 0.5, h, BOXCAR)
    effective = plug_in_alpha(
        pi_hat, ds, 0.5, h, BOXCAR, effective_counts=True
    )
    assert np.array_equal(nominal.alpha, effective.alpha)


def test_alpha_grows_with_data():
    rng_cfgs = [(20, 0.1), (80, 0.1), (80, 0.4)]
    ds_small = balanced_pair_dataset(20)
    ds_big = balanced_pair_dataset(80)
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    a_small = plug_in_alpha(pi_hat, ds_small, 0.5, 0.1, GAUSSIAN).alpha[0]
    a_big = plug_in_alpha(pi_hat, ds_big, 0.5, 0.1, GAUSSIAN).alpha[0]
    a_wide = plug_in_alpha(pi_hat, ds_big, 0.5, 0.4, GAUSSIAN).alpha[0]
    assert a_small < a_big < a_wide


def test_alpha_missing_opponents_raises():
    ds = ComparisonDataset(
        3, np.array([0]), np.array([1]), np.array([0.5]), np.array([1]),
        item_labels=("ann", "bob", "cid"),
    )
    pi_hat = ScoreVector(np.array([1 / 3, 1 / 3, 1 / 3]), t=0.5)
    with pytest.raises(InferenceError, match="cid"):
        plug_in_alpha(pi_hat, ds, 0.5, 0.2, GAUSSIAN)


def test_alpha_undefined_precision_names_the_items():
    # ann's share is so small that both of her win probabilities round to
    # exactly 1, so her variance sum is 0 and her precision is undefined.
    ds = ComparisonDataset(
        3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([0.5, 0.5, 0.5]),
        np.array([1, 1, 0]), item_labels=("ann", "bob", "cid"),
    )
    pi_hat = ScoreVector(np.array([1e-20, 0.5, 0.5]), t=0.5)
    with pytest.raises(InferenceError, match=r"undefined precision for item\(s\): ann$"):
        plug_in_alpha(pi_hat, ds, 0.5, 0.2, GAUSSIAN)


def test_alpha_on_no_records_raises():
    # Raw counts find no opponents; effective counts fail in the kernel pass.
    empty = np.array([], dtype=int)
    ds = ComparisonDataset(2, empty, empty, np.array([]), empty)
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    with pytest.raises(InferenceError, match="no observed opponents"):
        plug_in_alpha(pi_hat, ds, 0.5, 0.2, GAUSSIAN)
    with pytest.raises(EstimationError, match="no comparison records"):
        plug_in_alpha(pi_hat, ds, 0.5, 0.2, GAUSSIAN, effective_counts=True)


def test_alpha_rejects_a_bandwidth_that_is_not_positive():
    ds = balanced_pair_dataset(10)
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    for h in (0.0, -0.1):
        for effective in (False, True):
            with pytest.raises(ValueError, match=f"bandwidth must be positive, got {h}"):
                plug_in_alpha(pi_hat, ds, 0.5, h, GAUSSIAN, effective_counts=effective)


@pytest.mark.parametrize("effective", [False, True])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_alpha_rejects_a_time_that_is_not_finite(t, effective):
    # The raw counts never read t, so such a time priced finite precisions.
    ds, _ = generate(SimConfig(n=4, m=5, seed=1))
    sv = fit_scores(ds, 0.5, 0.25, GAUSSIAN)
    with pytest.raises(ValueError, match=f"^evaluation time must be finite, got {t}$"):
        plug_in_alpha(sv, ds, t, 0.25, GAUSSIAN, effective_counts=effective)


def test_alpha_rejects_bad_scores():
    ds = balanced_pair_dataset(10)
    with pytest.raises(ValueError):
        plug_in_alpha(ScoreVector(np.array([1.0, 0.0]), t=0.5), ds, 0.5, 0.2, GAUSSIAN)
    with pytest.raises(ValueError):
        plug_in_alpha(ScoreVector(np.array([0.5, 0.3, 0.2])), ds, 0.5, 0.2, GAUSSIAN)


# -- bias (beta) -----------------------------------------------------------


SINE_ALPHAS = (1.2, 1.9, 2.6)


def sine_curve(s):
    vals = np.array([a + np.sin(5 * a * s) for a in SINE_ALPHAS])
    return ScoreVector(vals / vals.sum(), t=s)


def symbolic_beta(t0):
    """Exact second derivatives via sympy, then the same collapse."""
    ts = sp.Symbol("t")
    skills = [a + sp.sin(5 * a * ts) for a in SINE_ALPHAS]
    n = len(skills)
    pi_t = sine_curve(t0).scores
    P = build_ideal_transition(pi_t)
    G = group_inverse(P, ScoreVector(pi_t)).entries
    beta = np.zeros(n)
    for k in range(n):
        for l in range(k + 1, n):
            y = skills[l] / (skills[k] + skills[l])
            ydd = float(sp.diff(y, ts, 2).subs(ts, t0).evalf(30))
            c = (pi_t[k] + pi_t[l]) / n * ydd * GAUSSIAN.second_moment
            for i in range(n):
                beta[i] += (G[l, i] - G[k, i]) * c
    return beta


def test_beta_matches_symbolic_oracle():
    want = symbolic_beta(0.4)
    got = oracle_beta(sine_curve, 0.4, 0.1, GAUSSIAN, fd_step=1e-3)
    assert np.max(np.abs(got - want)) < 2e-3
    finer = oracle_beta(sine_curve, 0.4, 0.1, GAUSSIAN, fd_step=1e-4)
    assert np.max(np.abs(finer - want)) < 2e-5
    # bias of a simplex-valued estimate has zero net mass
    assert abs(got.sum()) < 1e-9


def test_beta_constant_truth_is_zero():
    flat = ScoreVector(np.array([0.5, 0.3, 0.2]))
    beta = oracle_beta(lambda s: flat, 0.5, 0.1, GAUSSIAN)
    assert np.array_equal(beta, np.zeros(3))


def test_beta_boundary_guard():
    with pytest.raises(ValueError, match="boundary"):
        oracle_beta(sine_curve, 0.0005, 0.1, GAUSSIAN, fd_step=1e-3)


# -- diagonal approximation ------------------------------------------------


def test_diagonal_approx_uniform_frozen():
    # uniform scores: exit rate (n-1)/(2n), diagonal 2n/(n-1)
    n = 10
    pi_hat = ScoreVector(np.full(n, 1.0 / n))
    approx = diagonal_group_inverse_approx(pi_hat)
    assert approx.diag == pytest.approx(np.full(n, 20 / 9), abs=1e-12)
    M = approx.as_matrix()
    assert M[0, 0] == pytest.approx(20 / 9)
    assert M[0, 1] == 0.0


def uniform_case_error(n):
    # uniform scores: A = (1/2)(I - J/n) so A# = 2(I - J/n) and the column
    # error against diag(2n/(n-1)) is explicit
    d = 2 * (2 * n - 1) / (n * (n - 1))
    return np.sqrt(d * d + 4 * (n - 1) / n**2)


def test_diagonal_approx_error_shrinks_with_n():
    errors = []
    for n in (10, 40, 160):
        pi = np.full(n, 1.0 / n)
        sv = ScoreVector(pi)
        P = build_ideal_transition(pi)
        G = group_inverse(P, sv)
        got = diagonal_approx_error(diagonal_group_inverse_approx(sv), G)
        assert got == pytest.approx(uniform_case_error(n), abs=1e-10)
        errors.append(got)
    assert errors[0] > errors[1] > errors[2]
    # roughly the 2/sqrt(n) decay the off-diagonal mass predicts
    assert errors[2] == pytest.approx(2 / np.sqrt(160), rel=0.02)


# -- confidence intervals --------------------------------------------------


def test_score_ci_frozen():
    pi_hat = ScoreVector(np.array([0.1, 0.9]), t=0.5)
    params = plug_in_alpha(
        pi_hat, balanced_pair_dataset(10), 0.5, 0.2, GAUSSIAN
    )
    # overwrite with a round precision to pin the arithmetic
    params = type(params)(alpha=np.array([100.0, 100.0]))
    ci = score_ci(pi_hat, params, 0, level=0.95)
    assert ci.point == 0.1
    assert ci.lower == pytest.approx(0.1 - 1.959963984540054 / 100, abs=1e-12)
    assert ci.upper == pytest.approx(0.1 + 1.959963984540054 / 100, abs=1e-12)
    assert ci.width == pytest.approx(2 * 1.959963984540054 / 100, abs=1e-12)


def test_score_ci_level_validation():
    pi_hat = ScoreVector(np.array([0.5, 0.5]))
    params = plug_in_alpha(
        ScoreVector(np.array([0.5, 0.5]), t=0.5),
        balanced_pair_dataset(10), 0.5, 0.2, GAUSSIAN,
    )
    with pytest.raises(ValueError):
        score_ci(pi_hat, params, 0, level=1.0)


def test_pairwise_ci_symmetric_center():
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    params = plug_in_alpha(
        pi_hat, balanced_pair_dataset(40), 0.5, 0.2, GAUSSIAN
    )
    ci = pairwise_win_ci(pi_hat, params, 0, 1)
    assert ci.point == 0.5
    assert ci.upper - 0.5 == pytest.approx(0.5 - ci.lower, abs=1e-14)
    assert 0.0 <= ci.lower < 0.5 < ci.upper <= 1.0
    with pytest.raises(ValueError):
        pairwise_win_ci(pi_hat, params, 1, 1)


@pytest.mark.parametrize(
    "interval",
    [
        lambda sv, params: score_ci(sv, params, -1),
        lambda sv, params: score_ci(sv, params, 5),
        lambda sv, params: pairwise_win_ci(sv, params, 0, -5),
        lambda sv, params: pairwise_win_ci(sv, params, -1, 4),
        lambda sv, params: pairwise_win_ci(sv, params, 5, 0),
    ],
    ids=["score-negative", "score-past-end", "pair-wraps-to-self", "pair-negative", "pair-past-end"],
)
def test_intervals_reject_an_item_index_outside_the_roster(interval):
    # A negative index would read from the end of the scores: item -5 of
    # five is item 0, so the pair (0, -5) would be item 0 against itself.
    ds, _ = generate(SimConfig(n=5, m=20, seed=1))
    sv = fit_scores(ds, 0.5, 0.2, GAUSSIAN)
    params = plug_in_alpha(sv, ds, 0.5, 0.2, GAUSSIAN)
    with pytest.raises(ValueError, match=r"item index -?\d+ outside 0\.\.4"):
        interval(sv, params)


def test_pairwise_ci_clips_to_unit_interval():
    pi_hat = ScoreVector(np.array([0.5, 0.5]), t=0.5)
    params = plug_in_alpha(
        pi_hat, balanced_pair_dataset(4), 0.5, 0.05, GAUSSIAN
    )
    # tiny effective sample: raw half-width blows past the unit interval
    ci = pairwise_win_ci(pi_hat, params, 0, 1)
    assert ci.lower >= 0.0
    assert ci.upper <= 1.0


def test_interval_estimate_is_frozen():
    ci = IntervalEstimate(0.5, 0.4, 0.6, 0.95)
    with pytest.raises(Exception):
        ci.point = 0.7


# -- expansion diagnostic --------------------------------------------------


def test_expansion_identity_is_exact():
    rng = np.random.default_rng(6)
    pi = rng.uniform(1.0, 3.0, size=6)
    pi /= pi.sum()
    P_star = build_ideal_transition(pi)
    G = group_inverse(P_star, ScoreVector(pi))
    ds, _ = generate(SimConfig(n=6, m=60, seed=9))
    sv = fit_scores(ds, 0.5, 0.3, GAUSSIAN, sigma_n=0.0, tol=1e-13)
    from krc.estimator import pair_fractions, transition_from_fractions

    P_hat = transition_from_fractions(ds.n, *pair_fractions(ds, 0.5, 0.3, GAUSSIAN))
    report = expansion_diagnostic(P_hat, P_star, G, pi_hat=sv,
                                  pi_star=ScoreVector(pi))
    assert report.identity_gap < 1e-12
    assert report.first_order_residual <= report.ea_norm**2 + 1e-12
    assert report.e_norm > 0


def test_expansion_condition_small_perturbation():
    pi = np.array([0.4, 0.35, 0.25])
    P_star = build_ideal_transition(pi)
    G = group_inverse(P_star, ScoreVector(pi))
    bump = np.array([[0.0, 1e-3, -1e-3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    from krc.estimator import TransitionMatrix

    P_hat = TransitionMatrix(P_star.entries + bump)
    report = expansion_diagnostic(P_hat, P_star, G)
    assert report.condition_holds
    assert report.second_order_norm < report.first_order_residual * 10 + 1e-12
    assert report.first_order_residual < 1e-4


def _alpha_by_pair_loops(pi_hat, ds, t, h, kernel, effective_counts):
    """The per-pair reference: one Python iteration per observed pair."""
    weight_inv = np.zeros((ds.n, ds.n))
    if effective_counts:
        for (i, j), times, _ in ds.pairs():
            mass = float(np.sum(kernel.weight(t, times, h)))
            if mass > 0:
                weight_inv[i, j] = weight_inv[j, i] = 1.0 / mass
    else:
        for (i, j), times, _ in ds.pairs():
            weight_inv[i, j] = weight_inv[j, i] = 1.0 / (times.size * h)
    scores = pi_hat.scores
    observed = weight_inv > 0
    Y = scores[None, :] / (scores[:, None] + scores[None, :])
    np.fill_diagonal(Y, 0.0)
    S1 = np.where(observed, Y, 0.0).sum(axis=1)
    pair_sum = scores[:, None] + scores[None, :]
    terms = np.where(
        observed,
        weight_inv * pair_sum**2 * Y * (1.0 - Y) * kernel.squared_integral,
        0.0,
    )
    return S1 / np.sqrt(terms.sum(axis=1))


@pytest.mark.parametrize("kernel", [GAUSSIAN, BOXCAR])
def test_alpha_matches_per_pair_loops(kernel):
    ds, _ = generate(SimConfig(n=7, m=25, seed=12))
    # drop one pair so an unobserved pair is in the sums
    keep = ~((ds._ii == 2) & (ds._jj == 5))
    ds = ComparisonDataset(ds.n, ds._ii[keep], ds._jj[keep], ds._tt[keep], ds._yy[keep])
    pi_hat = fit_scores(ds, 0.4, 0.15, kernel)
    counted = plug_in_alpha(pi_hat, ds, 0.4, 0.15, kernel)
    ref = _alpha_by_pair_loops(pi_hat, ds, 0.4, 0.15, kernel, False)
    assert np.array_equal(counted.alpha, ref)
    effective = plug_in_alpha(pi_hat, ds, 0.4, 0.15, kernel, effective_counts=True)
    ref = _alpha_by_pair_loops(pi_hat, ds, 0.4, 0.15, kernel, True)
    np.testing.assert_allclose(effective.alpha, ref, rtol=1e-14, atol=0.0)


def test_alpha_effective_counts_missing_opponents_raises():
    # both of item 2's pairs lie outside the boxcar window around t
    ds = ComparisonDataset(
        3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([0.5, 0.9, 0.9]),
        np.array([1, 0, 1]), item_labels=("ann", "bob", "cid"),
    )
    pi_hat = ScoreVector(np.array([1 / 3, 1 / 3, 1 / 3]), t=0.5)
    with pytest.raises(InferenceError, match=r"opponents for item\(s\): cid$"):
        plug_in_alpha(pi_hat, ds, 0.5, 0.1, BOXCAR, effective_counts=True)
