"""Metric grids, sweeps, timing, coverage, and walk-forward backtests."""

import dataclasses
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.stats

from krc import baselines, estimator, experiments
from krc.baselines import (
    EloConfig,
    MMConfig,
    _mm_sums,
    bt_mle_mm,
    elo_update,
    static_rank_centrality,
    wmle,
)
from krc.data import ComparisonDataset, TimeEncoding
from krc.errors import ConnectivityError, ConvergenceError, EstimationError, InferenceError
from krc.estimator import (
    ScoreVector,
    _fits,
    _solve_sums,
    default_teleport,
    estimate_curve,
    fit_scores,
)
from krc.experiments import (
    _ad_normal_critical_1pct,
    _ad_normal_statistic,
    backtest,
    bandwidth_sweep,
    coverage_experiment,
    evaluate_metrics,
    metric_grid,
    timing_bench,
)
from krc.inference import normal_quantile, plug_in_alpha
from krc.kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN, Kernel
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
    est = [ScoreVector(truth.normalized_skill(float(t)), t=float(t)) for t in grid]
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


def test_bandwidth_sweep_rejects_no_replication_and_no_method():
    # Both gave a table of NaN cells or of no cell.
    config = SimConfig(n=4, m=6, seed=0)
    with pytest.raises(ValueError, match="^replications must be >= 1, got 0$"):
        bandwidth_sweep(config, [0.1], methods=("krc",), replications=0)
    with pytest.raises(ValueError, match="^need at least one sweep method$"):
        bandwidth_sweep(config, [0.1], methods=())


def test_bandwidth_sweep_rejects_kernel_methods_without_a_bandwidth():
    # An empty grid gave a table without a cell.
    config = SimConfig(n=4, m=6, seed=0)
    for methods in (("krc", "wmle"), ("krc",), ("wmle", "rc")):
        with pytest.raises(ValueError, match="^kernel methods need at least one bandwidth$"):
            bandwidth_sweep(config, [], methods=methods)
    assert list(bandwidth_sweep(config, [], methods=("rc",)).best) == ["rc"]


# -- timing ----------------------------------------------------------------


def test_timing_bench_rows():
    rows = timing_bench([5, 8], m=10, repetitions=3, seed=1)
    assert len(rows) == 4
    by_key = {(r.method, r.n): r for r in rows}
    assert set(by_key) == {("krc", 5), ("krc", 8), ("wmle", 5), ("wmle", 8)}
    for r in rows:
        assert r.median_seconds > 0
        assert len(r.seconds) == 3


def test_timing_bench_rejects_zero_repetitions(monkeypatch):
    # The check comes before any work: no dataset is simulated.
    monkeypatch.setattr(experiments, "generate", None)
    for reps in (0, -1):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            timing_bench([5], m=10, repetitions=reps)


def test_timing_bench_raises_a_failed_stage(monkeypatch):
    real = baselines._mm_stack

    def fail(*args):
        return [ConvergenceError("forced failure") for _ in real(*args)]

    monkeypatch.setattr(baselines, "_mm_stack", fail)
    with pytest.raises(ConvergenceError, match="forced failure"):
        timing_bench([5], m=10, repetitions=2, seed=1)


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


def test_coverage_refits_a_reducible_chain_with_the_teleport(monkeypatch):
    # One replication's data is swapped for two items whose record graph at
    # t=0.5 is strongly connected while item 0's share rounds to 0 (h=0.01),
    # so its sigma_n=0 chain is reducible; the other replications' chains
    # are strongly connected.  All 100 replications are one stack.
    bad = ComparisonDataset(2, [0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.59], [1, 1, 0])
    config = SimConfig(n=2, m=200, seed=40)
    real_generate = experiments.generate
    real_solve = experiments._solve_sums
    stacks = []

    def swap_third(cfg):
        dataset, truth = real_generate(cfg)
        return (bad if cfg.seed == config.seed + 2 else dataset), truth

    def spy_solve(*args, **kwargs):
        stacks.append((real_solve(*args, **kwargs), kwargs["rescued"]))
        return stacks[-1][0]

    monkeypatch.setattr(experiments, "generate", swap_third)
    monkeypatch.setattr(experiments, "_solve_sums", spy_solve)
    report = coverage_experiment(config, t=0.5, h=0.01, replications=100)
    assert report.n_disconnected == 1
    ((fits, disconnected),) = stacks
    assert disconnected == [2]
    assert np.array_equal(fits[2].scores, fit_scores(bad, 0.5, 0.01, GAUSSIAN).scores)


def loop_coverage(
    config, t=0.5, h=0.01, level=0.95, replications=100, sigma_n=0.0,
    alpha_source="estimated",
):
    """Reference for coverage_experiment with the Gaussian kernel, one
    replication at a time: a lone ``fit_scores`` (and, for a disconnected
    sigma_n=0 chain, a second one with the default teleport) and a lone
    ``plug_in_alpha`` call each, on the datasets of ``experiments.generate``."""
    n = config.n
    z = normal_quantile(0.5 * (1.0 + level))
    covered = np.zeros(n)
    pi_hats = np.empty((replications, n))
    zscores = np.empty((replications, n))
    halfwidths = np.zeros(n)
    n_disconnected = n_unpriced = 0
    for rep in range(replications):
        cfg = dataclasses.replace(config, seed=config.seed + rep)
        dataset, truth = experiments.generate(cfg)
        pi_true = truth.normalized_skill(t)
        try:
            sv = fit_scores(dataset, t, h, GAUSSIAN, sigma_n)
        except ConnectivityError:
            sv = fit_scores(dataset, t, h, GAUSSIAN, default_teleport(n))
            n_disconnected += 1
        except EstimationError:
            n_unpriced += 1
            continue
        source = sv if alpha_source == "estimated" else ScoreVector(pi_true, t=t)
        try:
            alpha = plug_in_alpha(source, dataset, t, h, GAUSSIAN).alpha
        except InferenceError:
            n_unpriced += 1
            continue
        half = z / alpha
        err = sv.scores - pi_true
        covered += (np.abs(err) <= half).astype(float)
        halfwidths += half
        pi_hats[rep - n_unpriced] = sv.scores
        zscores[rep - n_unpriced] = alpha * err
    priced = replications - n_unpriced
    corr = np.corrcoef(pi_hats[:priced].T)
    pooled = zscores[:priced, : min(10, n)].ravel()
    ad_stat = float(scipy.stats.anderson(pooled, dist="norm", method="interpolate").statistic)
    ad_crit = _ad_normal_critical_1pct(pooled.size)
    return experiments.CoverageReport(
        per_item_coverage=covered / priced,
        mean_abs_correlation=float(np.nanmean(np.abs(corr[~np.eye(n, dtype=bool)]))),
        mean_ci_halfwidth=float(halfwidths.mean() / priced),
        ad_statistic=ad_stat,
        ad_critical_1pct=ad_crit,
        ad_normal_pass=ad_stat < ad_crit,
        n_replications=replications,
        level=level,
        alpha_source=alpha_source,
        n_disconnected=n_disconnected,
        n_unpriced=n_unpriced,
    )


def assert_same_report(report, reference):
    for field in dataclasses.fields(report):
        got, want = getattr(report, field.name), getattr(reference, field.name)
        assert np.array_equal(got, want, equal_nan=not isinstance(got, str)), field.name


def drop_pairs(real_generate):
    """``generate`` with some pairs' records left out, a different set of
    pairs for each seed."""

    def partial(cfg):
        dataset, truth = real_generate(cfg)
        tt, ii, jj, yy = dataset.in_time_order()
        keep = (ii * 7 + jj * 3 + cfg.seed) % 4 != 0
        return ComparisonDataset(dataset.n, ii[keep], jj[keep], tt[keep], yy[keep]), truth

    return partial


@pytest.mark.parametrize(
    "config, kwargs, budget, partial",
    [
        # disconnected sigma_n=0 replications, refitted with the teleport,
        # and unpriced ones, in stacks of six
        (SimConfig(n=6, m=3, seed=11), dict(h=0.02), 6 * 36, False),
        (SimConfig(n=10, m=20, seed=5), dict(t=0.3, h=0.05, sigma_n=0.1), None, False),
        # pair sets that differ between replications, in stacks of nine
        (SimConfig(n=8, m=4, seed=3), dict(h=0.02), 8 * 8 * 9, True),
    ],
    ids=["disconnected-stacks", "teleported", "partial-pairs-stacks"],
)
def test_coverage_equals_the_per_replication_loop(monkeypatch, config, kwargs, budget, partial):
    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    if partial:
        monkeypatch.setattr(experiments, "generate", drop_pairs(experiments.generate))
    report = coverage_experiment(config, replications=100, **kwargs)
    assert_same_report(report, loop_coverage(config, replications=100, **kwargs))
    if kwargs.get("sigma_n", 0.0) == 0.0:
        assert report.n_disconnected > 0 and report.n_unpriced > 0


def test_coverage_makes_one_pass_per_replication_and_one_solve_per_stack(monkeypatch):
    # Stacks of six: 100 replications make 17 stacks, the last of four.
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 6 * 36)
    passes, stacks = [], []
    real_pass, real_stack = experiments._pair_sums, estimator._stationary_stack

    def spy_pass(dataset, grid, *args):
        passes.append(len(grid))
        return real_pass(dataset, grid, *args)

    def spy_stack(M, *args):
        stacks.append(M.shape[0])
        return real_stack(M, *args)

    monkeypatch.setattr(experiments, "_pair_sums", spy_pass)
    monkeypatch.setattr(estimator, "_stationary_stack", spy_stack)
    report = coverage_experiment(SimConfig(n=6, m=3, seed=11), h=0.02, replications=100)
    assert report.n_disconnected > 0
    assert passes == [1] * 100
    assert len(stacks) == 17 and max(stacks) <= 6


def test_coverage_with_oracle_alpha_matches_truth_plug_in_loop():
    config = SimConfig(n=4, m=60, seed=100)
    report = coverage_experiment(
        config, t=0.5, h=0.05, replications=100, alpha_source="oracle-truth"
    )
    reference = loop_coverage(config, h=0.05, alpha_source="oracle-truth")
    assert_same_report(report, reference)
    assert report.alpha_source == "oracle-truth"
    assert report.n_unpriced == 0
    # the truth's precision is not the estimate's, so the source shows
    estimated = loop_coverage(config, h=0.05)
    assert report.mean_ci_halfwidth != pytest.approx(estimated.mean_ci_halfwidth, rel=1e-6)


def test_coverage_leaves_out_replications_without_a_precision():
    # Replication 64's sigma_n=0 fit puts item 2's share so far below its
    # opponents' that its variance sum is 0, so it is counted, not priced.
    config = SimConfig(n=7, m=8, seed=0)
    report = coverage_experiment(config, replications=100)
    assert_same_report(report, loop_coverage(config))
    assert report.n_unpriced == 1
    assert report.n_replications == 100
    assert np.isfinite(report.ad_statistic)
    assert 0.0 <= report.mean_abs_correlation <= 1.0


def test_coverage_leaves_out_replications_without_kernel_mass():
    # One record per replication: at h=0.01 a record more than about 0.37
    # from t=0.5 weighs 0, so that replication has no fit and is not priced;
    # a lone record's sigma_n=0 chain is disconnected, and refitted.
    config = SimConfig(n=2, m=1, seed=0)
    report = coverage_experiment(config, h=0.01, replications=100)
    assert_same_report(report, loop_coverage(config))
    assert 0 < report.n_unpriced < 100
    assert report.n_disconnected == 100 - report.n_unpriced


def test_coverage_without_a_priced_replication_raises(monkeypatch):
    empty = ComparisonDataset(3, [], [], [], [])
    real_generate = experiments.generate
    monkeypatch.setattr(
        experiments, "generate", lambda cfg: (empty, real_generate(cfg)[1])
    )
    with pytest.raises(InferenceError, match="none of the 100 replications"):
        coverage_experiment(SimConfig(n=3, m=4, seed=0), replications=100)


@pytest.mark.parametrize(
    "n_samples, expected",
    # scipy's legacy ``anderson(x, "norm").critical_values[-1]`` at these sizes
    [(5, 0.835), (10, 0.943), (40, 1.015), (400, 1.033), (1000, 1.034), (5000, 1.035)],
)
def test_ad_critical_1pct_formula(n_samples, expected):
    N = n_samples
    assert _ad_normal_critical_1pct(N) == round(1.035 / (1 + 0.75 / N + 2.25 / N**2), 3)
    assert _ad_normal_critical_1pct(N) == expected


@pytest.mark.parametrize("n_samples", [5, 6, 13, 100, 1000, 6000])
@pytest.mark.parametrize("law", ["normal", "student-t3", "ties"])
def test_ad_statistic_equals_scipy_anderson_bitwise(n_samples, law):
    rng = np.random.default_rng(n_samples)
    for _ in range(20):
        if law == "student-t3":  # heavy tails
            x = rng.standard_t(3, n_samples)
        else:
            x = rng.standard_normal(n_samples)
            if law == "ties":
                x = np.round(x, 1)
        want = scipy.stats.anderson(x, dist="norm", method="interpolate").statistic
        assert _ad_normal_statistic(x) == float(want)


def coverage_at(monkeypatch, workers, config, **kwargs):
    """coverage_experiment's 100-replication report on ``workers`` shares,
    with a fresh pool."""
    monkeypatch.setattr(estimator, "_WORKERS", workers)
    monkeypatch.setattr(estimator, "_pool", None)
    return coverage_experiment(config, replications=100, **kwargs)


@pytest.mark.parametrize(
    "config, kwargs, budget",
    [
        (SimConfig(n=10, m=20, seed=5), dict(t=0.3, h=0.05, sigma_n=None), None),
        # disconnected sigma_n=0 replications, rescued, in stacks of six
        (SimConfig(n=6, m=3, seed=11), dict(h=0.02), 6 * 36),
        (SimConfig(n=4, m=60, seed=100), dict(h=0.05, alpha_source="oracle-truth"), None),
    ],
    ids=["default-teleport", "rescued-stacks", "oracle-truth"],
)
def test_coverage_is_the_same_at_any_worker_count(monkeypatch, config, kwargs, budget):
    # Threads switch every microsecond, so a row written by the wrong
    # replication, or lost, would show.
    if budget is not None:
        monkeypatch.setattr(estimator, "TILE_ELEMENTS", budget)
    want = coverage_at(monkeypatch, 1, config, **kwargs)
    if budget is not None:
        assert want.n_disconnected > 0
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (2, 3):
            assert_same_report(coverage_at(monkeypatch, workers, config, **kwargs), want)
    finally:
        sys.setswitchinterval(interval)


def test_coverage_raises_the_first_replications_error_once_every_share_returns(monkeypatch):
    # Two shares: the calling thread runs the even replications, the pool
    # the odd ones.  Replication 2 fails at once and replication 1 after
    # 0.1 s; the experiment raises replication 1's error, the earlier one,
    # so it waited for the pool's share, and no share runs past its failure.
    config = SimConfig(n=4, m=10, seed=20)
    real = experiments.generate
    ran = []

    def failing(cfg):
        rep = cfg.seed - config.seed
        ran.append(rep)
        if rep == 1:
            time.sleep(0.1)
            raise ValueError("replication 1")
        if rep == 2:
            raise ValueError("replication 2")
        return real(cfg)

    monkeypatch.setattr(experiments, "generate", failing)
    with pytest.raises(ValueError, match="^replication 1$"):
        coverage_at(monkeypatch, 2, config)
    assert sorted(ran) == [0, 1, 2]


def test_coverage_with_several_blocks_a_pass_equals_one_worker(monkeypatch):
    # 64-weight tiles split each replication's one-point pass (15 pairs of
    # 20 records) into five blocks, which run inside the replication's
    # share.  The experiment runs in a daemon thread, so a deadlock fails
    # the test instead of hanging it.
    monkeypatch.setattr(estimator, "CACHE_ELEMENTS", 64)
    config = SimConfig(n=6, m=20, seed=9)
    want = coverage_at(monkeypatch, 1, config, h=0.05)
    tiles = []
    real = Kernel.weight

    def spy(self, *args, **kw):
        tiles.append(threading.get_ident())
        return real(self, *args, **kw)

    monkeypatch.setattr(Kernel, "weight", spy)
    got = []
    runner = threading.Thread(
        target=lambda: got.append(coverage_at(monkeypatch, 2, config, h=0.05)), daemon=True
    )
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), "a replication's pass waited on the pool"
    assert_same_report(got[0], want)
    assert len(tiles) == 5 * 100 and len(set(tiles)) == 2


def test_coverage_keeps_at_most_the_budgets_replications_in_flight(monkeypatch):
    # Eight CPUs, and a budget of three n=6, m=5 datasets (75 records each,
    # and 74 records to spare): three shares, each dropping its dataset
    # before it simulates the next.  A replication is in flight from its
    # generate call until its dataset is freed.
    monkeypatch.setattr(experiments, "RECORDS_IN_FLIGHT", 3 * 75 + 74)
    config = SimConfig(n=6, m=5, seed=3)
    real = experiments.generate
    lock = threading.Lock()
    live, peak, threads = [0], [0], set()

    def land():
        with lock:
            live[0] -= 1

    def spy(cfg):
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            threads.add(threading.get_ident())
        time.sleep(0.001)
        dataset, truth = real(cfg)
        weakref.finalize(dataset, land)
        return dataset, truth

    monkeypatch.setattr(experiments, "generate", spy)
    report = coverage_at(monkeypatch, 8, config, h=0.05)
    assert len(threads) == 3 and 1 <= peak[0] <= 3 and live[0] == 0
    assert_same_report(report, coverage_at(monkeypatch, 1, config, h=0.05))


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


def test_every_fit_makes_one_kernel_pass(monkeypatch):
    # Each call below reads one pass of per-pair sums over its whole grid,
    # the walk-forward days and a curve that spans several solver stacks
    # included.
    grids = []
    real = estimator._pair_sums

    def spy(dataset, time_grid, *args, **kwargs):
        grids.append(np.size(time_grid))
        return real(dataset, time_grid, *args, **kwargs)

    monkeypatch.setattr(estimator, "_pair_sums", spy)
    ds, _ = generate(SimConfig(n=5, m=8, seed=4))
    season, _ = season_fixture()
    days = np.unique(season.times[season.times >= 2]).size
    grid = np.linspace(0.05, 0.95, 40)
    runs = [
        (1, lambda: fit_scores(ds, 0.5, 0.2, GAUSSIAN)),
        (40, lambda: estimate_curve(ds, grid, 0.2, GAUSSIAN)),
        (1, lambda: static_rank_centrality(ds)),
        (1, lambda: bt_mle_mm(ds, strict=False)),
        (1, lambda: wmle(ds, 0.5, 0.2, GAUSSIAN, strict=False)),
    ] + [
        (days, lambda m=method: backtest(season, base_seasons=2, method=m, h=1.0))
        for method in ("krc", "rc", "mle", "wmle")
    ]
    monkeypatch.setattr(estimator, "TILE_ELEMENTS", 10 * 5 * 5)  # stacks of 10 chains
    for points, run in runs:
        grids.clear()
        run()
        assert grids == [points]
    grids.clear()
    bandwidth_sweep(SimConfig(n=4, m=12, seed=3), h_grid=[0.1, 0.5],
                    methods=("krc", "wmle"), replications=2)
    assert grids == [11] * 8  # one per (replication, method, h)


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


def test_elo_backtest_matches_per_game_loop():
    # The per-game loop that the array tally replaced is the reference:
    # each test game is scored from the ratings before its own update.
    ds, _ = generate_season_dataset(
        n=10, n_seasons=3, days_per_season=3, games_per_day=2, seed=5, drift=0.4
    )
    config = EloConfig()
    tt, ii, jj, yy = ds.in_time_order()
    ratings = np.full(ds.n, config.initial_rating)
    seen = np.zeros(ds.n, dtype=bool)
    tally, n_ties, n_skipped = {}, 0, 0
    for k in range(tt.size):
        i, j = int(ii[k]), int(jj[k])
        if tt[k] >= 1 and not (seen[i] and seen[j]):
            n_skipped += 1
        elif tt[k] >= 1:
            pick = j if ratings[j] > ratings[i] else i
            n_ties += int(ratings[j] == ratings[i])
            season = tally.setdefault(int(np.floor(tt[k])) + 1, [0, 0])
            season[0] += 1
            season[1] += int(pick == (j if yy[k] == 1 else i))
        elo_update(ratings, i, j, int(yy[k]), config)
        seen[i] = seen[j] = True
    report = backtest(ds, base_seasons=1, method="elo")
    seasons = [(s, g, c) for s, (g, c) in sorted(tally.items())]
    assert _report_fields(report) == (seasons, n_ties, n_skipped, 0)
    assert n_skipped > 0 and report.n_games > 0


def _report_fields(report):
    seasons = [(r.season, r.n_games, r.n_correct) for r in report.per_season]
    return seasons, report.n_ties, report.n_skipped, report.n_failed_fits


@pytest.mark.parametrize("method", ["mle", "wmle"])
def test_backtest_new_pair_is_not_held_at_zero(method):
    # Items 0 and 1 play throughout.  Items 2 and 3 first meet on season 2,
    # day 1, and then only each other, so from day 2 on item 3 has won but
    # never met items 0 and 1: the win graph of the items with wins is not
    # strongly connected, and no score for item 3, zero or other, is the
    # MLE.  Those days fail; none is scored with item 3 held at zero.
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
    report = backtest(ds, base_seasons=1, method=method, h=1.0)
    fields, days = reference_backtest(ds, 1, method, 1.0, GAUSSIAN, None)
    assert _report_fields(report) == fields
    assert [d is None for d in days] == [False, True, True, True]
    assert report.n_failed_fits == 3 and report.n_ties == 0
    tt = ds.in_time_order()[0]
    fits = _fits(ds, np.unique(tt[tt >= 1]), 1.0, GAUSSIAN if method == "wmle" else None,
                 _mm_sums, MMConfig(), method == "mle", before=True)
    assert [type(fit) for _, fit in fits][1:] == [ConnectivityError] * 3


# -- krc and rc days as one causal batched pass -------------------------------


def reference_backtest(ds, base_seasons, method, h, kernel, sigma_n, fail_day=None):
    """The per-day krc/rc/mle/wmle loop that the causal pass replaced: report
    fields and each test day's scores (None for a failed fit).  ``fail_day``
    forces that day's fit to fail."""
    tt, ii, jj, yy = ds.in_time_order()
    test_mask = tt >= float(base_seasons)
    season_tally = {}
    n_ties = n_skipped = n_failed_fits = 0
    eval_times = np.unique(tt[test_mask])
    seen_by = np.full(ds.n, np.inf)
    np.minimum.at(seen_by, np.concatenate((ii, jj)), np.concatenate((tt, tt)))
    days = []
    for d, t_day in enumerate(eval_times):
        past = ds.with_max_time(float(t_day))
        if past.n_records and not past.times.max() < t_day:
            raise RuntimeError("leakage: a fitted record is not earlier than t")
        day_mask = test_mask & (tt == t_day)
        try:
            if d == fail_day:
                raise ConvergenceError("forced failure")
            if method == "krc":
                scores = fit_scores(past, float(t_day), h, kernel, sigma_n).scores
            elif method == "rc":
                scores = static_rank_centrality(past, sigma_n).scores
            elif method == "wmle":
                scores = wmle(past, float(t_day), h, kernel, strict=False).scores
            else:
                scores = bt_mle_mm(past, strict=False).scores
        except (EstimationError, ConnectivityError, ConvergenceError):
            n_failed_fits += 1
            n_skipped += int(np.count_nonzero(day_mask))
            days.append(None)
            continue
        days.append(scores)
        for k in np.flatnonzero(day_mask):
            i, j = int(ii[k]), int(jj[k])
            if not (seen_by[i] < t_day and seen_by[j] < t_day):
                n_skipped += 1
                continue
            if scores[j] > scores[i]:
                pred = j
            elif scores[j] < scores[i]:
                pred = i
            else:
                n_ties += 1
                pred = min(i, j)
            tally = season_tally.setdefault(int(np.floor(tt[k])) + 1, [0, 0])
            tally[0] += 1
            tally[1] += int(pred == (j if yy[k] == 1 else i))
    seasons = [(s, v[0], v[1]) for s, v in sorted(season_tally.items())]
    return (seasons, n_ties, n_skipped, n_failed_fits), days


def rc_gap_dataset():
    """Three items over two four-day seasons.  Item 2 first beats item 1 on
    season 2, day 2, so the pooled win graph before that day's end is not
    strongly connected."""
    rows = []
    for season in (1, 2):
        for day in range(1, 5):
            rows.append((0, 1, season, day, day % 2))
            rows.append((1, 2, season, day, int((season, day) == (2, 2))))
    enc = TimeEncoding("season-day", (4, 4))
    return ComparisonDataset(
        3,
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([enc.encode(r[2], r[3]) for r in rows]),
        np.array([r[4] for r in rows]),
        encoding=enc,
    )


# (label, dataset, base seasons, method, h, kernel, sigma_n, days that fail)
WALK_FORWARD_CASES = [
    ("krc-gaussian", season_fixture, 2, "krc", 1.0, GAUSSIAN, None, 0),
    ("krc-gaussian-raw", season_fixture, 2, "krc", 0.5, GAUSSIAN, 0.0, 0),
    ("krc-epanechnikov", season_fixture, 2, "krc", 0.5, EPANECHNIKOV, None, 0),
    # 0.2 is short of the gap between seasons: each season's first day has
    # no record with mass
    ("krc-boxcar", season_fixture, 1, "krc", 0.2, BOXCAR, None, 3),
    ("rc", season_fixture, 2, "rc", 1.0, GAUSSIAN, None, 0),
    ("rc-disconnected", rc_gap_dataset, 1, "rc", 1.0, GAUSSIAN, 0.0, 2),
    ("rc-teleported", rc_gap_dataset, 1, "rc", 1.0, GAUSSIAN, None, 0),
]


@pytest.mark.parametrize(
    "label,make,base,method,h,kernel,sigma_n,n_failed",
    WALK_FORWARD_CASES,
    ids=[c[0] for c in WALK_FORWARD_CASES],
)
def test_causal_pass_matches_per_day_loop(
    label, make, base, method, h, kernel, sigma_n, n_failed
):
    ds = make()
    if isinstance(ds, tuple):
        ds = ds[0]
    fields, ref_days = reference_backtest(ds, base, method, h, kernel, sigma_n)
    report = backtest(ds, base_seasons=base, method=method, h=h, kernel=kernel,
                      sigma_n=sigma_n)
    assert _report_fields(report) == fields
    assert report.n_failed_fits == n_failed
    tt = ds.in_time_order()[0]
    eval_times = np.unique(tt[tt >= base])
    fits = list(_fits(ds, eval_times, h, kernel if method == "krc" else None,
                      _solve_sums, sigma_n, 1e-10, before=True))
    assert len(fits) == len(ref_days)
    for (kept, fit), t_day, ref in zip(fits, eval_times, ref_days):
        assert kept == ds.with_max_time(float(t_day)).n_records
        if ref is None:
            assert isinstance(fit, (EstimationError, ConnectivityError))
        else:
            assert fit.t == t_day
            assert np.max(np.abs(fit.scores - ref)) <= 1e-15


def test_causal_pass_day_failure_stays_on_its_day(monkeypatch):
    ds, _ = season_fixture()
    real = estimator._stationary_stack

    def fail_fifth(M, tol, max_iter):
        out = real(M, tol, max_iter)
        out[4] = ConvergenceError("forced failure")
        return out

    real_mm = baselines._mm_stack

    def fail_fifth_mm(*args, **kwargs):
        out = real_mm(*args, **kwargs)
        out[4] = ConvergenceError("forced failure")
        return out

    for method in ("krc", "rc", "mle", "wmle"):
        fields, _ = reference_backtest(ds, 2, method, 1.0, GAUSSIAN, None, fail_day=4)
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_stationary_stack", fail_fifth)
            patch.setattr(baselines, "_mm_stack", fail_fifth_mm)
            report = backtest(ds, base_seasons=2, method=method, h=1.0)
        assert _report_fields(report) == fields
        assert report.n_failed_fits == 1


@pytest.mark.parametrize("budget", [10, 3 * 8 * 8])
def test_causal_pass_keeps_chain_stacks_within_budget(monkeypatch, budget):
    # Days go in stacks of at most TILE_ELEMENTS chain entries, one chain
    # when a chain alone is larger (n=8: 64 entries), with the same fits.
    ds, _ = season_fixture()
    eval_times = np.unique(ds.times[ds.times >= 2])
    for kernel in (GAUSSIAN, None):
        whole = list(_fits(ds, eval_times, 1.0, kernel, _solve_sums, None, 1e-10,
                           before=True))
        stacks = []
        real = estimator._chains

        def spy(*args):
            P = real(*args)
            stacks.append(P.shape[0])
            return P

        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_chains", spy)
            patch.setattr(estimator, "TILE_ELEMENTS", budget)
            split = list(_fits(ds, eval_times, 1.0, kernel, _solve_sums, None, 1e-10,
                               before=True))
        assert max(stacks) == max(1, budget // 64) and len(stacks) > 1
        assert sum(stacks) == eval_times.size
        assert [k for k, _ in split] == [k for k, _ in whole]
        for (_, a), (_, b) in zip(split, whole):
            assert a.t == b.t and np.array_equal(a.scores, b.scores)


@pytest.mark.parametrize("method", ["krc", "mle", "wmle"])
def test_causal_pass_leakage_check_trips(monkeypatch, method):
    ds, _ = season_fixture()
    real = experiments._fits

    def leaky(*args, **kwargs):
        for kept, fit in real(*args, **kwargs):
            yield kept + 1, fit

    monkeypatch.setattr(experiments, "_fits", leaky)
    with pytest.raises(RuntimeError, match="leakage"):
        backtest(ds, base_seasons=2, method=method, h=1.0)


# -- mle days as one causal pass with a stacked MM solve ----------------------


# (label, dataset, base seasons)
MLE_CASES = [
    ("season-13", lambda: season_fixture()[0], 2),
    ("season-14", lambda: generate_season_dataset(
        n=8, n_seasons=4, days_per_season=6, games_per_day=4, seed=14, drift=0.4
    )[0], 2),
    # item 2 has not beaten item 1 before season 2, day 2: it scores zero
    ("pinned", rc_gap_dataset, 1),
]


@pytest.mark.parametrize("label,make,base", MLE_CASES, ids=[c[0] for c in MLE_CASES])
def test_mle_days_match_per_day_loop(label, make, base):
    ds = make()
    cold_fields, cold_days = reference_backtest(ds, base, "mle", 1.0, GAUSSIAN, None)
    report = backtest(ds, base_seasons=base, method="mle", h=1.0)
    assert _report_fields(report) == cold_fields
    tt = ds.in_time_order()[0]
    eval_times = np.unique(tt[tt >= base])
    fits = list(_fits(ds, eval_times, 1.0, None, _mm_sums, MMConfig(), True, before=True))
    assert len(fits) == len(cold_days) == eval_times.size
    for (kept, fit), t_day, cold in zip(fits, eval_times, cold_days):
        assert kept == ds.with_max_time(float(t_day)).n_records
        assert np.array_equal(fit.scores, cold)


# -- wmle days from the causal pass -------------------------------------------


@pytest.mark.parametrize("seed", [10, 5])
def test_wmle_days_match_per_day_loop(seed):
    # Every day's win graph here is strongly connected, so every day has an
    # MLE and none may fail (the step-size-stopped MM failed 1 and 3).
    ds, _ = generate_season_dataset(
        n=8, n_seasons=4, days_per_season=6, games_per_day=4, seed=seed,
        drift=1.2, spread=0.4,
    )
    fields, ref_days = reference_backtest(ds, 2, "wmle", 0.8, GAUSSIAN, None)
    report = backtest(ds, base_seasons=2, method="wmle", h=0.8)
    assert _report_fields(report) == fields
    assert report.n_failed_fits == 0
    tt = ds.in_time_order()[0]
    eval_times = np.unique(tt[tt >= 2])
    fits = list(_fits(ds, eval_times, 0.8, GAUSSIAN, _mm_sums, MMConfig(), False,
                      before=True))
    assert len(fits) == len(ref_days) == eval_times.size
    for (kept, fit), t_day, ref in zip(fits, eval_times, ref_days):
        assert kept == ds.with_max_time(float(t_day)).n_records
        assert fit.t == t_day
        assert np.max(np.abs(fit.scores - ref)) <= 1e-12


def test_wmle_backtest_prices_every_krc_game_on_criterion_12_data():
    ds, _ = generate_season_dataset(
        n=12, n_seasons=10, days_per_season=12, games_per_day=5, seed=0,
        drift=1.2, spread=0.4,
    )
    weighted = backtest(ds, base_seasons=3, method="wmle", h=0.8)
    smoothed = backtest(ds, base_seasons=3, method="krc", h=0.8)
    assert weighted.n_failed_fits == 0
    assert weighted.n_games == smoothed.n_games
