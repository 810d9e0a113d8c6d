"""Simulation experiments and the walk-forward season backtest.

Accuracy metrics follow the simulation protocol: on the grid t_k = k/M,
k = 1..M-1, the averaged relative error is

    rmse_avg = (1/(M-1)) sum_k ||pi_hat(t_k) - pi(t_k)||_2 / ||pi(t_k)||_2

and linf_max is the corresponding max over the grid of relative
infinity-norm errors.  The truth is compared on the simplex scale, as the
estimator is normalized by construction.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scipy_stats

from .baselines import (
    EloConfig,
    MMConfig,
    _mm_solve,
    _mm_sums,
    _win_matrix,
    elo_update,
    static_rank_centrality,
)
from .data import ComparisonDataset
from .errors import ConnectivityError, ConvergenceError, EstimationError, InferenceError
from .estimator import (
    _TOL,
    ScoreVector,
    _fits,
    _fitted,
    _pair_sums,
    _solve_sums,
    _stack_rows,
    default_teleport,
    estimate_curve,
    pair_fractions,
    regularize,
    stationary,
    transition_from_fractions,
)
from .inference import _alpha_stack, normal_quantile
from .kernels import GAUSSIAN, Kernel
from .simulate import GroundTruth, SimConfig, generate

_FIT_ERRORS = (EstimationError, ConnectivityError, ConvergenceError)


# -- metrics ---------------------------------------------------------------


@dataclass
class MetricReport:
    rmse_avg: float
    linf_max: float
    per_point_errors: list[tuple[float, float]]


def metric_grid(m: int) -> np.ndarray:
    """Interior evaluation grid t_k = k/M, k = 1..M-1."""
    if m < 2:
        raise ValueError("need m >= 2 for a nonempty interior grid")
    return np.arange(1, m) / m


def evaluate_metrics(
    estimates: list[ScoreVector],
    truth: GroundTruth,
    m: int,
) -> MetricReport:
    """Relative-error summary of an estimated curve against the truth.

    ``estimates`` must cover exactly the grid k/M in order; a mismatch is
    an error rather than a silent re-interpolation.
    """
    grid = metric_grid(m)
    if len(estimates) != grid.size:
        raise ValueError(
            f"expected {grid.size} grid estimates, got {len(estimates)}"
        )
    per_point: list[tuple[float, float]] = []
    for sv, t in zip(estimates, grid):
        if sv.t is None or abs(sv.t - t) > 1e-9:
            raise ValueError(f"estimate at t={sv.t} does not match grid point {t}")
        true = truth.normalized_skill(t)
        diff = sv.scores - true
        l2 = float(np.linalg.norm(diff) / np.linalg.norm(true))
        linf = float(np.max(np.abs(diff)) / np.max(np.abs(true)))
        per_point.append((l2, linf))
    arr = np.asarray(per_point)
    return MetricReport(
        rmse_avg=float(arr[:, 0].mean()),
        linf_max=float(arr[:, 1].max()),
        per_point_errors=per_point,
    )


# -- bandwidth sweep -------------------------------------------------------


@dataclass
class SweepCell:
    method: str
    h: float | None
    rmse_mean: float
    linf_mean: float
    n_ok: int
    n_failures: int


@dataclass
class SweepTable:
    cells: list[SweepCell]
    best: dict[str, tuple[float | None, float]]

    def cell(self, method: str, h: float | None) -> SweepCell:
        for c in self.cells:
            if c.method == method and (
                (c.h is None and h is None)
                or (c.h is not None and h is not None and c.h == h)
            ):
                return c
        raise KeyError(f"no sweep cell for ({method}, {h})")


def bandwidth_sweep(
    config: SimConfig,
    h_grid,
    methods: tuple[str, ...] = ("krc", "wmle", "rc"),
    kernel: Kernel = GAUSSIAN,
    replications: int = 1,
    sigma_n: float | None = None,
) -> SweepTable:
    """Mean curve error per (method, bandwidth) over fresh replications.

    The static method ignores h and occupies a single cell (h=None).  A
    method failing at a degenerate bandwidth (disconnected weighted graph,
    zero mass, non-convergence) loses that replication; failure counts are
    reported per cell and cells with no successes carry NaN means.
    """
    for m_name in methods:
        if m_name not in ("krc", "wmle", "rc"):
            raise ValueError(f"unknown sweep method {m_name!r}")
    h_grid = [float(h) for h in np.asarray(h_grid, dtype=float).ravel()]
    grid = metric_grid(config.m)
    keys = [(m, h) for m in methods for h in ([None] if m == "rc" else h_grid)]
    results = {key: [] for key in keys}
    failures = dict.fromkeys(keys, 0)

    for rep in range(replications):
        cfg = dataclasses.replace(config, seed=config.seed + rep)
        dataset, truth = generate(cfg)
        for method, h in keys:
            try:
                if method == "rc":
                    sv = static_rank_centrality(dataset, sigma_n)
                    curve = [ScoreVector(sv.scores, t=float(t)) for t in grid]
                elif method == "krc":
                    curve = estimate_curve(dataset, grid, h, kernel, sigma_n)
                else:
                    fits = _fitted(dataset, grid, h, kernel, _mm_sums, MMConfig(), False)
                    curve = [sv for sv, _ in fits]
                rpt = evaluate_metrics(curve, truth, config.m)
                results[(method, h)].append((rpt.rmse_avg, rpt.linf_max))
            except _FIT_ERRORS:
                failures[(method, h)] += 1

    cells: list[SweepCell] = []
    best: dict[str, tuple[float | None, float]] = {}
    for (method, h), values in results.items():
        arr = np.asarray(values) if values else np.empty((0, 2))
        cells.append(
            SweepCell(
                method=method,
                h=h,
                rmse_mean=float(arr[:, 0].mean()) if arr.size else float("nan"),
                linf_mean=float(arr[:, 1].mean()) if arr.size else float("nan"),
                n_ok=len(values),
                n_failures=failures[(method, h)],
            )
        )
    for method in methods:
        candidates = [
            c for c in cells if c.method == method and np.isfinite(c.rmse_mean)
        ]
        if candidates:
            winner = min(candidates, key=lambda c: c.rmse_mean)
            best[method] = (winner.h, winner.rmse_mean)
    return SweepTable(cells=cells, best=best)


# -- timing ----------------------------------------------------------------


@dataclass
class BenchRow:
    method: str
    n: int
    median_seconds: float
    seconds: tuple[float, ...]


def timing_bench(
    n_grid,
    m: int = 50,
    h: float = 0.1,
    kernel: Kernel = GAUSSIAN,
    repetitions: int = 5,
    seed: int = 0,
) -> list[BenchRow]:
    """Median wall time of the estimation stage at t=0.5, per method and n.

    Both methods consume the same kernel-weighted pair aggregate, so that
    shared smoothing pass runs once outside the clock.  What is timed is
    each method's own work downstream of it: assembling the comparison
    chain and solving for its stationary vector, versus assembling the
    win-share matrix and solving it as ``wmle`` does, the existence check
    included, with the default teleport 1/n and solver settings.
    """
    rows: list[BenchRow] = []
    for n in [int(v) for v in n_grid]:
        dataset, _ = generate(SimConfig(n=n, m=m, seed=seed + n))
        idx_i, idx_j, frac = pair_fractions(dataset, 0.5, h, kernel)
        sigma = default_teleport(n)

        def krc_stage():
            P = regularize(transition_from_fractions(n, idx_i, idx_j, frac), sigma)
            return stationary(P)

        def wmle_stage():
            win = _win_matrix(n, idx_i, idx_j, frac, 1.0 - frac)
            return _mm_solve(win, MMConfig())

        krc_stage()  # warmup
        wmle_stage()
        krc_times = []
        wmle_times = []
        for _ in range(repetitions):
            t0 = _time.perf_counter()
            krc_stage()
            t1 = _time.perf_counter()
            wmle_stage()
            t2 = _time.perf_counter()
            krc_times.append(t1 - t0)
            wmle_times.append(t2 - t1)
        rows.append(
            BenchRow("krc", n, float(np.median(krc_times)), tuple(krc_times))
        )
        rows.append(
            BenchRow("wmle", n, float(np.median(wmle_times)), tuple(wmle_times))
        )
    return rows


# -- coverage --------------------------------------------------------------


@dataclass
class CoverageReport:
    per_item_coverage: np.ndarray
    mean_abs_correlation: float
    mean_ci_halfwidth: float
    ad_statistic: float
    ad_critical_1pct: float
    ad_normal_pass: bool
    n_replications: int
    level: float
    alpha_source: str
    n_disconnected: int
    n_unpriced: int


def _ad_normal_critical_1pct(n_samples: int) -> float:
    """1% critical value of the Anderson-Darling normality statistic when
    mean and variance are estimated: Stephens' asymptotic point 1.035 over
    his finite-sample factor 1 + 0.75/N + 2.25/N^2, to three decimals."""
    N = n_samples
    return round(1.035 / (1.0 + 0.75 / N + 2.25 / N**2), 3)


def coverage_experiment(
    config: SimConfig,
    t: float = 0.5,
    h: float = 0.01,
    level: float = 0.95,
    replications: int = 500,
    kernel: Kernel = GAUSSIAN,
    sigma_n: float = 0.0,
    alpha_source: str = "estimated",
) -> CoverageReport:
    """Empirical coverage of per-item score intervals under the simulator.

    Uses under-smoothing (small h) so the bias term is negligible and the
    intervals are centered.  With sigma_n = 0 the raw chain is used; the
    rare replication whose sigma_n=0 chain is not strongly connected is
    fitted again, from the same per-pair sums, with the default teleport
    and counted.  A replication without kernel mass at t or with an
    undefined plug-in precision is counted as unpriced and left out of every
    statistic, and InferenceError is raised when none is priced.  Marginal
    normality of the standardized errors is checked with an Anderson-Darling
    test at the 1% point, pooled over the first ten items.

    Replications go in groups of one solver stack (see ``_stack_rows``).
    Each replication's dataset gives its per-pair sums at t and its per-pair
    record counts, laid out over every pair of items, and is then dropped;
    each group's chains are built, checked, solved and priced as one stack.
    Every replication's scores and precision are those that ``fit_scores``
    and ``plug_in_alpha`` give it alone.
    """
    if replications < 100:
        raise ValueError("coverage needs at least 100 replications")
    if alpha_source not in ("estimated", "oracle-truth"):
        raise ValueError(f"unknown alpha source {alpha_source!r}")
    n = config.n
    z = normal_quantile(0.5 * (1.0 + level))
    iu, ju = np.triu_indices(n, 1)
    covered = np.zeros(n)
    pi_hats = np.empty((replications, n))
    zscores = np.empty((replications, n))
    halfwidths = np.zeros(n)
    n_disconnected = n_unpriced = priced = 0
    group = _stack_rows(n)
    for g in range(0, replications, group):
        k = min(group, replications - g)
        den, num = np.zeros((2, k, iu.size))
        counts = np.zeros((k, iu.size))
        truths = np.empty((k, n))
        for d in range(k):
            dataset, truth = generate(dataclasses.replace(config, seed=config.seed + g + d))
            truths[d] = truth.normalized_skill(t)
            starts, seg_i, seg_j = dataset.pair_segments()
            slot = seg_i * (2 * n - seg_i - 1) // 2 + seg_j - seg_i - 1  # (i, j)'s in iu, ju
            counts[d, slot] = np.diff(starts, append=dataset.n_records)
            try:
                _, den_t, num_t, _ = next(_pair_sums(dataset, [t], h, kernel))
            except EstimationError:  # no records: the row has no mass
                continue
            den[d, slot], num[d, slot] = den_t[0], num_t[0]
        labels = dataset.item_labels
        del dataset
        rescued = []
        fits = _solve_sums(n, iu, ju, [t] * k, den, num, h, sigma_n, _TOL, rescued=rescued)
        n_disconnected += len(rescued)
        del den, num  # the precision reads the counts
        fitted = [d for d, fit in enumerate(fits) if isinstance(fit, ScoreVector)]
        scores = np.array([fits[d].scores for d in fitted]).reshape(-1, n)
        alpha, errors = _alpha_stack(
            scores if alpha_source == "estimated" else truths[fitted],
            counts[fitted] * h, iu, ju, kernel, labels,
        )
        priced_rows = iter(zip(scores, alpha, errors))
        for d, fit in enumerate(fits):
            if isinstance(fit, EstimationError):  # no record with kernel mass at t
                n_unpriced += 1
                continue
            if not isinstance(fit, ScoreVector):
                raise fit
            pi_hat, a, failed = next(priced_rows)
            if isinstance(failed, InferenceError):
                n_unpriced += 1
                continue
            if failed is not None:
                raise failed
            half = z / a
            err = pi_hat - truths[d]
            covered += (np.abs(err) <= half).astype(float)
            halfwidths += half
            pi_hats[priced] = pi_hat
            zscores[priced] = a * err
            priced += 1
    if not priced:
        raise InferenceError(f"none of the {replications} replications was priced")
    coverage = covered / priced
    corr = np.corrcoef(pi_hats[:priced].T)
    off = corr[~np.eye(n, dtype=bool)]
    pooled = zscores[:priced, : min(10, n)].ravel()
    ad_stat = float(
        _scipy_stats.anderson(pooled, dist="norm", method="interpolate").statistic
    )
    ad_crit = _ad_normal_critical_1pct(pooled.size)
    return CoverageReport(
        per_item_coverage=coverage,
        mean_abs_correlation=float(np.nanmean(np.abs(off))),
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


# -- backtest --------------------------------------------------------------


@dataclass
class SeasonResult:
    season: int
    n_games: int
    n_correct: int

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_games if self.n_games else float("nan")


@dataclass
class BacktestReport:
    method: str
    per_season: list[SeasonResult]
    total_accuracy: float
    n_games: int
    n_ties: int
    n_skipped: int
    n_failed_fits: int = 0
    params: dict = field(default_factory=dict)


_BACKTEST_METHODS = ("krc", "rc", "wmle", "mle", "elo")


def _causal_scores(dataset, tt, eval_times, method, h, kernel, sigma_n):
    """Each test day's krc, rc, mle or wmle scores from one causal batched
    pass, or None for a day whose fit failed.  The records each day's fit let
    in must number those strictly before it."""
    weights = kernel if method in ("krc", "wmle") else None  # None: pooled counts
    if method in ("mle", "wmle"):
        solver = _mm_sums, MMConfig(), weights is None
    else:
        solver = _solve_sums, sigma_n, _TOL
    fits = _fits(dataset, eval_times, h, weights, *solver, before=True)
    n_before = np.searchsorted(tt, eval_times)  # tt is in time order
    for (kept, fit), expected in zip(fits, n_before.tolist()):
        if kept != expected:
            raise RuntimeError("leakage: a fitted record is not earlier than t")
        if isinstance(fit, _FIT_ERRORS):
            yield None
        elif isinstance(fit, Exception):
            raise fit
        else:  # an MLE day's fit is (ScoreVector, MMInfo)
            yield fit.scores if isinstance(fit, ScoreVector) else fit[0].scores


def backtest(
    dataset: ComparisonDataset,
    base_seasons: int,
    method: str = "krc",
    h: float = 1.0,
    kernel: Kernel = GAUSSIAN,
    sigma_n: float | None = None,
) -> BacktestReport:
    """Walk-forward prediction accuracy on season-day data.

    Games in seasons after ``base_seasons`` are predicted one game day at a
    time using only strictly earlier records (asserted, not assumed); the
    predicted winner is the higher-scored item, exact score ties going to
    the lower index and counted separately.  Games involving an item never
    seen before the game day are skipped and reported.

    krc, rc, mle and wmle fit every test day in one causal pass: one
    blocked pass gives each day's per-pair sums over the records strictly
    before it, and the days are solved as stacks (chains for krc and rc, win
    counts for mle and win shares for wmle, each MLE day started cold).  A
    day whose win graph gives no interior MLE over the items with wins fails
    with ConnectivityError, and is counted in ``n_failed_fits`` with its
    games skipped.  The records each day's fit let in must number those
    strictly before the day.
    """
    if dataset.encoding.scheme != "season-day":
        raise ValueError("backtest requires a season-day encoded dataset")
    if method not in _BACKTEST_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_BACKTEST_METHODS}"
        )
    counts = dataset.encoding.season_day_counts or ()
    n_seasons = len(counts)
    if not 1 <= base_seasons < n_seasons:
        raise ValueError(
            f"base_seasons={base_seasons} must leave at least one test season "
            f"out of {n_seasons}"
        )
    params = {
        "base_seasons": base_seasons,
        "h": h,
        "kernel": kernel.family,
        "sigma_n": default_teleport(dataset.n) if sigma_n is None else sigma_n,
    }
    tt, ii, jj, yy = dataset.in_time_order()
    first = int(np.searchsorted(tt, float(base_seasons)))  # test games: a suffix
    n_failed_fits = 0
    if method == "elo":
        elo_config = EloConfig()
        ratings = np.full(dataset.n, elo_config.initial_rating)
        seen = np.zeros(dataset.n, dtype=bool)
        games, pre = [], []  # each scored game and its pre-game ratings
        for k in range(tt.size):
            i, j = int(ii[k]), int(jj[k])
            if k >= first and seen[i] and seen[j]:
                games.append(k)
                pre.append((ratings[i], ratings[j]))
            elo_update(ratings, i, j, int(yy[k]), elo_config)
            seen[i] = seen[j] = True
        games = np.asarray(games, dtype=np.intp)
        s_i, s_j = np.asarray(pre, dtype=float).reshape(-1, 2).T
        params.update(
            {"k_factor": elo_config.k_factor, "scale": elo_config.logistic_scale}
        )
    else:
        eval_times = np.unique(tt[first:])
        seen_by = np.full(dataset.n, np.inf)
        np.minimum.at(seen_by, np.concatenate((ii, jj)), np.concatenate((tt, tt)))
        day_scores = list(_causal_scores(
            dataset, tt, eval_times, method, h, kernel, sigma_n
        ))
        fitted = np.array([s is not None for s in day_scores], dtype=bool)
        n_failed_fits = int(np.count_nonzero(~fitted))
        scores = np.array(
            [np.zeros(dataset.n) if s is None else s for s in day_scores]
        ).reshape(-1, dataset.n)
        t_test = tt[first:]
        day = np.searchsorted(eval_times, t_test)  # each test game's day
        # a game on a day the method cannot price counts as skipped, not wrong
        play = fitted[day] & (seen_by[ii[first:]] < t_test) & (seen_by[jj[first:]] < t_test)
        games, day = first + np.flatnonzero(play), day[play]
        s_i, s_j = scores[day, ii[games]], scores[day, jj[games]]
    n_skipped = tt.size - first - games.size
    # the higher score is the pick; a tie goes to item_i, the lower index
    pick_j = s_j > s_i
    n_ties = int(np.count_nonzero(~pick_j & ~(s_j < s_i)))
    correct = pick_j == (yy[games] == 1)
    season = np.floor(tt[games]).astype(np.int64) + 1  # season_of_time, per game
    seasons, which = np.unique(season, return_inverse=True)
    per_season = [
        SeasonResult(season=s, n_games=g, n_correct=c)
        for s, g, c in zip(
            seasons.tolist(),
            np.bincount(which, minlength=seasons.size).tolist(),
            np.bincount(which[correct], minlength=seasons.size).tolist(),
        )
    ]
    n_games = sum(r.n_games for r in per_season)
    n_correct = sum(r.n_correct for r in per_season)
    return BacktestReport(
        method=method,
        per_season=per_season,
        total_accuracy=(n_correct / n_games) if n_games else float("nan"),
        n_games=n_games,
        n_ties=n_ties,
        n_skipped=n_skipped,
        n_failed_fits=n_failed_fits,
        params=params,
    )
