"""End-to-end acceptance suite for the package's advertised properties.

Each test checks one numbered claim about the estimator stack, from exact
linear-algebra identities through Monte Carlo behavior to the season
backtest, and prints a single PASS/FAIL verdict line.  Run

    pytest tests/test_acceptance.py -s

to see the verdicts as they complete; the whole suite takes a few minutes,
dominated by the coverage study.  Tolerances are pinned here and should
not be loosened without a numerical argument.
"""

import time

import numpy as np

from krc.baselines import bt_mle_mm, static_rank_centrality, wmle
from krc.data import ComparisonDataset, ComparisonRecord
from krc.estimator import (
    ScoreVector,
    TransitionMatrix,
    build_ideal_transition,
    estimate_curve,
    fit_scores,
    pair_fractions,
    stationary,
)
from krc.experiments import (
    backtest,
    bandwidth_sweep,
    coverage_experiment,
    evaluate_metrics,
    metric_grid,
    timing_bench,
)
from krc.inference import diagonal_approx_error, diagonal_group_inverse_approx
from krc.kernels import BOXCAR, GAUSSIAN
from krc.online import OnlineState, apply_observation, group_inverse
from krc.simulate import SimConfig, generate, generate_season_dataset


def _verdict(num: int, ok: bool, label: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


# -- 1: exact linear algebra ----------------------------------------------


def test_criterion_01_group_inverse_axioms():
    """Group-inverse axioms hold at rounding level on 100 random chains."""
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        M = rng.uniform(0.05, 1.0, size=(n, n))
        M /= M.sum(axis=1, keepdims=True)
        P = TransitionMatrix(M)
        pi = stationary(P, tol=1e-13)
        A = np.eye(n) - M
        G = group_inverse(P, pi).entries
        e = np.ones(n)
        residuals = (
            np.linalg.norm(A @ G @ A - A),
            np.linalg.norm(G @ A @ G - G),
            np.linalg.norm(A @ G - G @ A),
            np.linalg.norm(G @ e),
            np.linalg.norm(pi.scores @ G),
        )
        worst = max(worst, float(max(residuals)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(
        1,
        ok,
        "group-inverse axioms on 100 random chains",
        f"max Frobenius residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_online_matches_batch():
    """1000 streamed observations reproduce the batch fit to 1e-8."""
    rng = np.random.default_rng(20240802)
    n, t, h = 20, 0.5, 0.15
    start = time.perf_counter()
    state = OnlineState(n, t, h, GAUSSIAN, refresh_every=100)
    cols_i, cols_j, cols_t, cols_y = [], [], [], []
    for _ in range(1000):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        tt = float(rng.uniform())
        y = int(rng.integers(2))
        state = apply_observation(state, ComparisonRecord(i, j, tt, y))
        cols_i.append(i)
        cols_j.append(j)
        cols_t.append(tt)
        cols_y.append(y)
    dataset = ComparisonDataset(
        n, np.array(cols_i), np.array(cols_j), np.array(cols_t), np.array(cols_y)
    )
    batch = fit_scores(dataset, t, h, GAUSSIAN)
    gap = float(np.max(np.abs(state.pi.scores - batch.scores)))
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-8 and elapsed < 5.0
    _verdict(
        2,
        ok,
        "online stream of 1000 observations matches batch (n=20)",
        f"inf-norm gap {gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_exact_recovery():
    """The idealized chain's stationary vector is its score vector."""
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for n in (3, 10, 50):
        for _ in range(50):
            v = rng.uniform(1.0, 3.0, size=n)
            v /= v.sum()
            sv = stationary(build_ideal_transition(v), tol=1e-12)
            worst = max(worst, float(np.max(np.abs(sv.scores - v))))
    ok = worst <= 1e-10
    _verdict(
        3,
        ok,
        "exact recovery of 50 simplex vectors per n in {3,10,50}",
        f"max error {worst:.2e}",
    )


def test_criterion_04_boxcar_static_limit():
    """A boxcar kernel wider than the data span reproduces the static
    pooled chain entrywise."""
    rng = np.random.default_rng(20240804)
    worst = 0.0
    for k in range(20):
        cfg = SimConfig(
            n=int(rng.integers(3, 13)),
            m=int(rng.integers(3, 11)),
            seed=20240804 + k,
        )
        dataset, _ = generate(cfg)
        smoothed = fit_scores(dataset, 0.5, 50.0, BOXCAR)
        pooled = static_rank_centrality(dataset)
        worst = max(worst, float(np.max(np.abs(smoothed.scores - pooled.scores))))
    ok = worst <= 1e-12
    _verdict(
        4,
        ok,
        "huge-bandwidth boxcar equals static rank centrality (20 datasets)",
        f"max entry gap {worst:.2e}",
    )


# -- 5..9: Monte Carlo behavior -------------------------------------------


def test_criterion_05_error_decreases_with_size():
    """Mean averaged relative error strictly decreases along the schedule
    (n, m) = (10,50) -> (50,100) -> (100,200) at h=0.1, 20 replications."""
    start = time.perf_counter()
    means = []
    for n, m in [(10, 50), (50, 100), (100, 200)]:
        vals = []
        for rep in range(20):
            dataset, truth = generate(SimConfig(n=n, m=m, seed=1000 * n + rep))
            curve = estimate_curve(dataset, metric_grid(m), 0.1, GAUSSIAN)
            vals.append(evaluate_metrics(curve, truth, m).rmse_avg)
        means.append(float(np.mean(vals)))
    elapsed = time.perf_counter() - start
    ok = means[0] > means[1] > means[2] and elapsed < 300.0
    _verdict(
        5,
        ok,
        "mean rmse decreases along (n,m) growth schedule",
        f"{means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_06_bandwidth_curve_shape():
    """RMSE over the bandwidth grid is minimized strictly inside the grid,
    and the huge-bandwidth end matches the static baseline."""
    grid = [0.01, 0.05, 0.1, 0.3, 1.0, 5.0]
    table = bandwidth_sweep(
        SimConfig(n=10, m=50, seed=0),
        h_grid=grid,
        methods=("krc", "rc"),
        kernel=BOXCAR,
        replications=5,
    )
    best_h, _ = table.best["krc"]
    plateau_gap = abs(table.cell("krc", 5.0).rmse_mean - table.cell("rc", None).rmse_mean)
    ok = best_h not in (grid[0], grid[-1]) and plateau_gap <= 1e-6
    _verdict(
        6,
        ok,
        "bandwidth sweep has interior minimum and static plateau",
        f"best h={best_h}, plateau gap {plateau_gap:.2e}",
    )


def test_criterion_07_krc_tracks_weighted_mle():
    """At their best grid bandwidths the chain estimator and the weighted
    MLE have RMSE within 10 percent of each other (20 replications)."""
    table = bandwidth_sweep(
        SimConfig(n=10, m=50, seed=1),
        h_grid=[0.01, 0.05, 0.1, 0.3, 1.0, 5.0],
        methods=("krc", "wmle"),
        kernel=GAUSSIAN,
        replications=20,
    )
    _, rmse_krc = table.best["krc"]
    _, rmse_wmle = table.best["wmle"]
    rel_gap = abs(rmse_krc - rmse_wmle) / rmse_wmle
    ok = rel_gap <= 0.10
    _verdict(
        7,
        ok,
        "best-bandwidth RMSE within 10% of weighted MLE",
        f"krc {rmse_krc:.4f} vs wmle {rmse_wmle:.4f}, rel gap {rel_gap:.3f}",
    )


def test_criterion_08_estimation_stage_speed():
    """The stationary solve is faster than MM iteration at n=100 and its
    advantage grows from n=10 to n=100."""
    rows = timing_bench([10, 100], m=50, h=0.1, repetitions=5, seed=3)
    med = {(r.method, r.n): r.median_seconds for r in rows}
    ratio_10 = med[("wmle", 10)] / med[("krc", 10)]
    ratio_100 = med[("wmle", 100)] / med[("krc", 100)]
    ok = med[("krc", 100)] < med[("wmle", 100)] and ratio_100 > ratio_10
    _verdict(
        8,
        ok,
        "speed advantage over weighted MLE grows with n",
        f"ratio {ratio_10:.1f}x at n=10 -> {ratio_100:.1f}x at n=100",
    )


def test_criterion_09_interval_coverage():
    """Under-smoothed 95% score intervals cover at close to nominal rate
    and the estimate entries are nearly uncorrelated (500 replications)."""
    start = time.perf_counter()
    report = coverage_experiment(
        SimConfig(n=100, m=200, seed=77),
        t=0.5,
        h=0.01,
        level=0.95,
        replications=500,
    )
    elapsed = time.perf_counter() - start
    cov = report.per_item_coverage
    frac_inside = float(np.mean((cov >= 0.90) & (cov <= 0.99)))
    ok = (
        frac_inside >= 0.90
        and report.mean_abs_correlation < 0.1
        and report.n_unpriced == 0
        and elapsed < 1800.0
    )
    _verdict(
        9,
        ok,
        "95% CI coverage in [0.90, 0.99] for >=90% of items, low correlation",
        f"{100 * frac_inside:.0f}% of items inside, "
        f"mean |corr| {report.mean_abs_correlation:.3f}, "
        f"{report.n_unpriced} unpriced, {elapsed:.0f}s",
    )


# -- 10..11: approximation and optimization oracles ------------------------


def test_criterion_10_diagonal_approx_improves_with_n():
    """Column error of the diagonal group-inverse surrogate shrinks as the
    number of items grows (uniform-score instances)."""
    errs = {}
    for n in (10, 40, 160):
        pi = ScoreVector(np.full(n, 1.0 / n))
        P = build_ideal_transition(pi.scores)
        G = group_inverse(P, pi)
        approx = diagonal_group_inverse_approx(pi)
        errs[n] = diagonal_approx_error(approx, G)
    # closed form for the uniform chain, as an independent crosscheck
    def exact(n: int) -> float:
        return float(
            np.sqrt(
                (2.0 * (2 * n - 1) / (n * (n - 1))) ** 2 + 4.0 * (n - 1) / n**2
            )
        )

    form_gap = max(abs(errs[n] - exact(n)) for n in errs)
    ok = errs[160] < errs[40] < errs[10] and form_gap <= 1e-10
    _verdict(
        10,
        ok,
        "diagonal group-inverse error decreases in n",
        f"{errs[10]:.4f} > {errs[40]:.4f} > {errs[160]:.4f}, "
        f"closed-form gap {form_gap:.1e}",
    )


def _grid_loglik(win: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Preference log-likelihood of every candidate row of ``cand``."""
    W = win.sum(axis=1)
    N = win + win.T
    iu_i, iu_j = np.triu_indices(win.shape[0], 1)
    ll = np.log(cand) @ W
    ll -= np.log(cand[:, iu_i] + cand[:, iu_j]) @ N[iu_i, iu_j]
    return ll


def _simplex_grid_argmax(win: np.ndarray, steps: int = 41, rounds: int = 4) -> np.ndarray:
    """Brute-force likelihood maximizer over the open simplex.

    Scans a mesh over the first n-1 coordinates and zooms into a box
    around the best point; four rounds bring the resolution to ~3e-5,
    comfortably below the 1e-3 comparison tolerance.
    """
    n = win.shape[0]
    lo = np.full(n - 1, 1e-9)
    hi = np.full(n - 1, 1.0 - 1e-9)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], steps) for k in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        free = np.stack([m.ravel() for m in mesh], axis=1)
        last = 1.0 - free.sum(axis=1)
        cand = np.concatenate([free, last[:, None]], axis=1)
        cand = cand[np.all(cand > 1e-9, axis=1)]
        ll = _grid_loglik(win, cand)
        best = cand[int(np.argmax(ll))]
        span = (hi - lo) / (steps - 1)
        lo = np.maximum(best[:-1] - 2.0 * span, 1e-9)
        hi = np.minimum(best[:-1] + 2.0 * span, 1.0 - 1e-9)
    return best


def test_criterion_11_mm_matches_grid_oracle():
    """Both MM solvers land on the brute-force likelihood maximizer and
    never decrease the likelihood along the way."""
    worst = 0.0
    monotone = True
    for n in (2, 3, 4):
        dataset, _ = generate(SimConfig(n=n, m=30, seed=500 + n))

        sv, info = bt_mle_mm(dataset, return_info=True)
        win = np.zeros((n, n))
        for (i, j), _, outs in dataset.pairs():
            win[j, i] += float(np.sum(outs == 1))
            win[i, j] += float(np.sum(outs == 0))
        oracle = _simplex_grid_argmax(win)
        worst = max(worst, float(np.max(np.abs(sv.scores - oracle))))
        ll = np.asarray(info.loglik)
        monotone &= bool(np.all(np.diff(ll) >= -1e-8 * (1.0 + np.abs(ll[:-1]))))

        sv_w, info_w = wmle(dataset, 0.5, 0.3, GAUSSIAN, return_info=True)
        idx_i, idx_j, frac = pair_fractions(dataset, 0.5, 0.3, GAUSSIAN)
        win_w = np.zeros((n, n))
        win_w[idx_j, idx_i] = frac
        win_w[idx_i, idx_j] = 1.0 - frac
        oracle_w = _simplex_grid_argmax(win_w)
        worst = max(worst, float(np.max(np.abs(sv_w.scores - oracle_w))))
        ll_w = np.asarray(info_w.loglik)
        monotone &= bool(
            np.all(np.diff(ll_w) >= -1e-8 * (1.0 + np.abs(ll_w[:-1])))
        )
    ok = worst <= 1e-3 and monotone
    _verdict(
        11,
        ok,
        "MM fixed points match simplex grid search (n=2,3,4)",
        f"max deviation {worst:.2e}, likelihood monotone: {monotone}",
    )


# -- 12: walk-forward backtest ---------------------------------------------


def test_criterion_12_backtest_beats_static_ranking():
    """On drifting-skill season data the smoothed ranker predicts future
    games better than the static pooled ranking."""
    dataset, _ = generate_season_dataset(
        n=12,
        n_seasons=10,
        days_per_season=12,
        games_per_day=5,
        seed=0,
        drift=1.2,
        spread=0.4,
    )
    smoothed = backtest(dataset, base_seasons=3, method="krc", h=0.8)
    pooled = backtest(dataset, base_seasons=3, method="rc")
    ok = smoothed.total_accuracy > pooled.total_accuracy
    _verdict(
        12,
        ok,
        "walk-forward accuracy beats static ranking on 10 seasons",
        f"krc {smoothed.total_accuracy:.4f} vs rc {pooled.total_accuracy:.4f} "
        f"on {smoothed.n_games} games",
    )


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            fn()
