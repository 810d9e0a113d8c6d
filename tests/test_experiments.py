"""Metric grids, sweeps, timing, coverage, and walk-forward backtests."""

import numpy as np
import pytest

from krc import experiments
from krc.data import ComparisonDataset, TimeEncoding
from krc.errors import ConvergenceError
from krc.estimator import ScoreVector, estimate_curve
from krc.experiments import (
    _ad_normal_critical_1pct,
    backtest,
    bandwidth_sweep,
    coverage_experiment,
    evaluate_metrics,
    metric_grid,
    timing_bench,
)
from krc.kernels import GAUSSIAN
from krc.simulate import (
    GroundTruth,
    SimConfig,
    generate,
    generate_season_dataset,
)


def test_metric_grid_frozen():
    assert np.array_equal(metric_grid(4), [0.25, 0.5, 0.75])
    assert metric_grid(2).tolist() == [0.5]
    with pytest.raises(ValueError):
        metric_grid(1)


def test_evaluate_metrics_single_point_frozen():
    truth = GroundTruth(alpha=np.array([2.0, 2.0]), dynamic=False)
    est = [ScoreVector(np.array([0.6, 0.4]), t=0.5)]
    report = evaluate_metrics(est, truth, 2)
    # relative L2: sqrt(0.02)/sqrt(0.5) = 0.2; relative Linf: 0.1/0.5 = 0.2
    assert report.rmse_avg == pytest.approx(0.2, abs=1e-12)
    assert report.linf_max == pytest.approx(0.2, abs=1e-12)
    assert report.per_point_errors == [(pytest.approx(0.2), pytest.approx(0.2))]


def test_evaluate_metrics_grid_mismatch():
    truth = GroundTruth(alpha=np.array([2.0, 2.0]), dynamic=False)
    with pytest.raises(ValueError, match="grid"):
        evaluate_metrics([ScoreVector(np.array([0.5, 0.5]), t=0.4)], truth, 2)
    with pytest.raises(ValueError, match="expected"):
        evaluate_metrics([], truth, 2)


def test_evaluate_metrics_perfect_estimate():
    ds, truth = generate(SimConfig(n=4, m=5, seed=1))
    grid = metric_grid(5)
    est = [truth.score_vector(float(t)) for t in grid]
    report = evaluate_metrics(est, truth, 5)
    assert report.rmse_avg == 0.0
    assert report.linf_max == 0.0


def test_evaluate_metrics_tracks_estimator():
    ds, truth = generate(SimConfig(n=5, m=60, seed=7))
    curve = estimate_curve(ds, metric_grid(8), 0.15, GAUSSIAN)
    report = evaluate_metrics(curve, truth, 8)
    assert 0.0 < report.rmse_avg < 1.0
    assert report.linf_max >= report.rmse_avg / 3


# -- bandwidth sweep -------------------------------------------------------


def test_bandwidth_sweep_structure():
    table = bandwidth_sweep(
        SimConfig(n=4, m=12, seed=3),
        h_grid=[0.1, 0.5],
        methods=("krc", "rc"),
        replications=2,
    )
    krc_cells = [c for c in table.cells if c.method == "krc"]
    rc_cells = [c for c in table.cells if c.method == "rc"]
    assert {c.h for c in krc_cells} == {0.1, 0.5}
    # static reference ignores the bandwidth grid
    assert len(rc_cells) == 1 and rc_cells[0].h is None
    for c in table.cells:
        assert c.n_ok + c.n_failures == 2
    best_h, best_rmse = table.best["krc"]
    assert best_h in (0.1, 0.5)
    assert best_rmse == min(c.rmse_mean for c in krc_cells)
    assert table.cell("rc", None).rmse_mean == rc_cells[0].rmse_mean
    with pytest.raises(KeyError):
        table.cell("krc", 0.7)


def test_bandwidth_sweep_unknown_method():
    with pytest.raises(ValueError):
        bandwidth_sweep(
            SimConfig(n=4, m=6, seed=0), h_grid=[0.1], methods=("glicko",)
        )


# -- timing ----------------------------------------------------------------


def test_timing_bench_rows():
    rows = timing_bench([5, 8], m=10, repetitions=3, seed=1)
    assert len(rows) == 4
    by_key = {(r.method, r.n): r for r in rows}
    assert set(by_key) == {("krc", 5), ("krc", 8), ("wmle", 5), ("wmle", 8)}
    for r in rows:
        assert r.median_seconds > 0
        assert len(r.seconds) == 3


# -- coverage --------------------------------------------------------------


def test_coverage_experiment_smoke():
    report = coverage_experiment(
        SimConfig(n=4, m=60, seed=100),
        t=0.5,
        h=0.05,
        replications=100,
    )
    assert report.n_replications == 100
    assert report.per_item_coverage.shape == (4,)
    assert np.all(report.per_item_coverage >= 0.0)
    assert np.all(report.per_item_coverage <= 1.0)
    # sanity floor: intervals should cover well over half the time
    assert report.per_item_coverage.mean() > 0.6
    assert 0.0 <= report.mean_abs_correlation <= 1.0
    assert report.mean_ci_halfwidth > 0.0
    assert report.alpha_source == "estimated"
    assert report.n_disconnected >= 0
    # z-scores of the first min(10, n) items pooled over the replications
    assert report.ad_critical_1pct == _ad_normal_critical_1pct(100 * 4)
    assert report.ad_normal_pass == (report.ad_statistic < report.ad_critical_1pct)


@pytest.mark.parametrize(
    "n_samples, expected",
    # scipy's legacy ``anderson(x, "norm").critical_values[-1]`` at these sizes
    [(5, 0.835), (10, 0.943), (40, 1.015), (400, 1.033), (1000, 1.034), (5000, 1.035)],
)
def test_ad_critical_1pct_formula(n_samples, expected):
    N = n_samples
    assert _ad_normal_critical_1pct(N) == round(1.035 / (1 + 0.75 / N + 2.25 / N**2), 3)
    assert _ad_normal_critical_1pct(N) == expected


def test_coverage_needs_enough_replications():
    with pytest.raises(ValueError, match="100"):
        coverage_experiment(SimConfig(n=4, m=10, seed=0), replications=50)
    with pytest.raises(ValueError, match="source"):
        coverage_experiment(
            SimConfig(n=4, m=10, seed=0),
            replications=100,
            alpha_source="exact",
        )


# -- backtest --------------------------------------------------------------


def season_fixture():
    return generate_season_dataset(
        n=8, n_seasons=4, days_per_season=6, games_per_day=4, seed=13, drift=0.4
    )


def test_backtest_structure_and_leakage_guard():
    ds, _ = season_fixture()
    report = backtest(ds, base_seasons=2, method="krc", h=1.0)
    test_games = 2 * 6 * 4
    assert report.n_games + report.n_skipped == test_games
    assert {r.season for r in report.per_season} <= {3, 4}
    total = sum(r.n_correct for r in report.per_season)
    assert report.total_accuracy == pytest.approx(total / report.n_games)
    assert 0.0 <= report.total_accuracy <= 1.0
    assert report.params["base_seasons"] == 2
    for r in report.per_season:
        assert 0 <= r.n_correct <= r.n_games
        assert 0.0 <= r.accuracy <= 1.0


def test_backtest_methods_run():
    ds, _ = season_fixture()
    accs = {}
    for method in ("krc", "rc", "mle", "elo"):
        report = backtest(ds, base_seasons=2, method=method, h=1.0)
        accs[method] = report.total_accuracy
        assert report.method == method
        assert report.n_games > 0
    # drifting skills: all methods should beat coin flipping on average
    assert np.mean(list(accs.values())) > 0.5


def test_backtest_validation():
    ds, _ = season_fixture()
    with pytest.raises(ValueError, match="method"):
        backtest(ds, base_seasons=2, method="glicko")
    with pytest.raises(ValueError, match="base_seasons"):
        backtest(ds, base_seasons=4)
    with pytest.raises(ValueError, match="base_seasons"):
        backtest(ds, base_seasons=0)
    flat, _ = generate(SimConfig(n=4, m=4, seed=0))
    with pytest.raises(ValueError, match="season-day"):
        backtest(flat, base_seasons=1)


def test_backtest_elo_vs_krc_consistency():
    # same games are scored: totals line up across methods
    ds, _ = season_fixture()
    a = backtest(ds, base_seasons=3, method="elo")
    b = backtest(ds, base_seasons=3, method="rc")
    assert a.n_games + a.n_skipped == b.n_games + b.n_skipped


# -- warm-started MM days --------------------------------------------------

_SOLVER = {"mle": "bt_mle_mm", "wmle": "wmle"}


def _report_fields(report):
    seasons = [(r.season, r.n_games, r.n_correct) for r in report.per_season]
    return seasons, report.n_ties, report.n_skipped, report.n_failed_fits


@pytest.mark.parametrize("method", ["mle", "wmle"])
@pytest.mark.parametrize("seed", [13, 14])
def test_backtest_warm_start_matches_cold(monkeypatch, method, seed):
    ds, _ = generate_season_dataset(
        n=8, n_seasons=4, days_per_season=6, games_per_day=4, seed=seed, drift=0.4
    )
    solve = getattr(experiments, _SOLVER[method])
    days = []

    def warm(*args, **kwargs):
        sv = solve(*args, **kwargs)
        days.append((args, kwargs, sv.scores))
        return sv

    def cold(*args, **kwargs):
        return solve(*args, **{**kwargs, "init": None})

    monkeypatch.setattr(experiments, _SOLVER[method], warm)
    warm_report = backtest(ds, base_seasons=2, method=method, h=1.0)
    monkeypatch.setattr(experiments, _SOLVER[method], cold)
    cold_report = backtest(ds, base_seasons=2, method=method, h=1.0)
    assert _report_fields(warm_report) == _report_fields(cold_report)
    assert warm_report.n_failed_fits == 0 and len(days) == 12
    # the first day starts cold, every later one from the day before
    assert days[0][1]["init"] is None
    for (_, kwargs, _), (_, _, before) in zip(days[1:], days):
        assert kwargs["init"] is before
    for args, kwargs, scores in days:
        cold_scores = solve(*args, **{**kwargs, "init": None}).scores
        assert np.max(np.abs(scores - cold_scores)) <= 1e-8


@pytest.mark.parametrize("method", ["mle", "wmle"])
def test_backtest_day_after_failed_fit_starts_cold(monkeypatch, method):
    ds, _ = season_fixture()
    solve = getattr(experiments, _SOLVER[method])
    inits = []

    def failing_fourth(*args, **kwargs):
        inits.append(kwargs["init"])
        if len(inits) == 4:
            raise ConvergenceError("forced failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, _SOLVER[method], failing_fourth)
    report = backtest(ds, base_seasons=2, method=method, h=1.0)
    assert report.n_failed_fits == 1
    assert len(inits) == 12
    assert inits[0] is None and inits[4] is None
    assert all(init is not None for k, init in enumerate(inits) if k not in (0, 4))


@pytest.mark.parametrize("method", ["mle", "wmle"])
def test_backtest_new_pair_is_not_held_at_zero(monkeypatch, method):
    # Items 0 and 1 play throughout.  Items 2 and 3 first meet on season 2,
    # day 1, and then only each other, so the day-1 fit scores them zero; a
    # day-2 start from those zeros would keep the winner, item 3, at zero.
    rows = [(0, 1, s, day, int(day < 4)) for s in (1, 2) for day in range(1, 5)]
    rows += [(2, 3, 2, day, 1) for day in range(1, 5)]
    enc = TimeEncoding("season-day", (4, 4))
    ds = ComparisonDataset(
        4,
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([enc.encode(r[2], r[3]) for r in rows]),
        np.array([r[4] for r in rows]),
        encoding=enc,
    )
    solve = getattr(experiments, _SOLVER[method])
    warm_report = backtest(ds, base_seasons=1, method=method, h=1.0)
    monkeypatch.setattr(
        experiments, _SOLVER[method],
        lambda *args, **kwargs: solve(*args, **{**kwargs, "init": None}),
    )
    cold_report = backtest(ds, base_seasons=1, method=method, h=1.0)
    assert _report_fields(warm_report) == _report_fields(cold_report)
    # no score ties: item 3, unbeaten by item 2, is picked on days 2-4
    assert warm_report.n_ties == 0
