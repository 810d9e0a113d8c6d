"""One benchmark workload, run in a fresh process by ``run.py``.

Usage: ``python3 benchmarks/workloads.py '<spec json>'``.  The spec names
the workload, its input files, the plan and whether to trace.  The process
prints one JSON object on its last stdout line.

Each workload is a closed loop: one caller issues the next operation only
when the last one has returned.  The ``timed`` plan sets up
``setup_reps`` times and then runs operations until ``seconds`` have passed
(and at least the workload's minimum amount of work).  The ``fixed`` plan,
used by traced runs and their untraced reference, sets up once and runs
exactly the minimum, so per-layer totals compare across commits.

Nothing outside the standard library is imported before ``import krc``,
so the measured import time covers numpy and scipy as a user pays them.

Host speed.  On a shared machine the same work can take 1.3-1.8x longer for
minutes at a time, and interpreter-bound work slows most.  The timed plan
therefore also runs a reference probe: a fixed numpy computation, owned by
the benchmark and shaped like the workload's own inner loop, timed before an
operation whenever ``PROBE_EVERY_S`` has passed and once after the last.
Throughput times the run's mean probe duration is work per reference unit,
from which host speed cancels.  krc never runs inside a probe, so a change
to krc moves operation times and leaves the probes alone.

Set-up is mostly interpreter work (import, CSV parsing, per-pair loops), so
the timed plan times a standard-library CSV-parsing probe at the start, after
``import krc`` and after each set-up, and reports ``setup_scale``: the fixed
``SETUP_PROBE_NOMINAL_S`` over the mean probe time.  Set-up seconds times
that scale are seconds on a host where the probe takes the nominal time.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


# A fixed CSV text for the set-up probe: 4,000 rows like the workloads' own.
_SETUP_PROBE_TEXT = "\n".join(
    f"{k / 4000!r},item_{k % 97},item_{k * 7 % 89},{k % 2}" for k in range(4000)
)
SETUP_PROBE_NOMINAL_S = 0.005

PROBE_EVERY_S = 0.25
# A probe repeats its computation for at least PROBE_MIN_S, or for
# PROBE_SHARE of the time since the previous probe, so probe time is spread
# over the run in step with operation time.
PROBE_MIN_S = 0.03
PROBE_SHARE = 0.05


def _setup_probe(samples: list[float]) -> None:
    """Parse _SETUP_PROBE_TEXT as ingest does, for at least PROBE_MIN_S."""
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < PROBE_MIN_S:
        t0 = time.perf_counter()
        labels: dict[str, int] = {}
        [
            (float(t), labels.setdefault(a, len(labels)), labels.setdefault(b, len(labels)), int(y))
            for t, a, b, y in csv.reader(_SETUP_PROBE_TEXT.splitlines())
        ]
        samples.append(time.perf_counter() - t0)


class Run:
    """Shared loop, timing and failure bookkeeping for one workload."""

    def __init__(self, spec: dict, krc, tracer, probe):
        self.spec = spec
        self.krc = krc
        self.tracer = tracer
        self.timed = spec["plan"] == "timed"
        # Reference probing belongs to the timed plan only, so traced runs
        # and their reference measure krc alone.
        self.probe = probe if self.timed else None
        self.probe_samples: list[float] = []
        self._last_probe: float | None = None
        self.setup_samples: list[float] = []
        self.setup_probe_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: dict[str, float] = {}

    def setup(self, build):
        """Run ``build`` setup_reps times (timed plan) or once; keep the last."""
        result = None
        for _ in range(self.spec["shape"]["setup_reps"] if self.timed else 1):
            result = None  # release the previous copy before building again
            with self._span("setup"):
                t0 = time.perf_counter()
                result = build()
                self.setup_samples.append(time.perf_counter() - t0)
            if self.timed:
                _setup_probe(self.setup_probe_samples)
        return result

    def keep_going(self, started: float, done_minimum: bool) -> bool:
        if not done_minimum:
            return True
        return self.timed and time.perf_counter() - started < self.spec["seconds"]

    def op(self):
        """Span one operation, probing host speed first when a probe is due."""
        if self.probe is not None and (
            self._last_probe is None or time.perf_counter() - self._last_probe >= PROBE_EVERY_S
        ):
            self._run_probe()
        return self._span("op")

    def _run_probe(self) -> None:
        started = time.perf_counter()
        since = 0.0 if self._last_probe is None else started - self._last_probe
        budget = max(PROBE_MIN_S, PROBE_SHARE * since)
        while True:
            t0 = time.perf_counter()
            self.probe()
            self.probe_samples.append(time.perf_counter() - t0)
            if t0 - started >= budget:
                break
        self._last_probe = time.perf_counter()

    def reference_s(self) -> float | None:
        """Mean probe time over the run, closing with one last probe; None
        outside the timed plan."""
        if self.probe is None:
            return None
        self._run_probe()
        return statistics.mean(self.probe_samples)

    def _span(self, name):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def stop_tracing(self) -> None:
        """Correctness checks run outside the traced totals."""
        if self.tracer is not None:
            self.tracer.recording = False


# -- workloads -------------------------------------------------------------


def _throughput(ops: int, op_s: float, ref_s: float | None) -> dict:
    """Operation seconds and work per second; per reference probe time too
    when the run probed."""
    out = {"op_s": op_s, "ops_per_s": ops / op_s}
    if ref_s is not None:
        out["ops_per_ref"] = out["ops_per_s"] * ref_s
    return out


def run_curve(run: Run, np) -> dict:
    krc = run.krc
    shape = run.spec["shape"]
    grid = np.arange(1, shape["grid"]) / shape["grid"]
    h = shape["h"]
    ds = run.setup(lambda: krc.ingest_csv(run.spec["inputs"]["curve"]))
    call_s: list[float] = []
    curve = None
    started = time.perf_counter()
    while run.keep_going(started, bool(call_s)):
        with run.op():
            t0 = time.perf_counter()
            curve = krc.estimate_curve(ds, grid, h, krc.GAUSSIAN)
            call_s.append(time.perf_counter() - t0)
        run.attempted += grid.size
        bad = 0
        for sv, t in zip(curve, grid):
            s = sv.scores
            if not (np.all(s > 0) and abs(s.sum() - 1.0) <= 1e-12 and sv.t == float(t)):
                bad += 1
        if bad or len(curve) != grid.size:
            run.fail(max(bad, 1), f"{bad} curve points not a positive simplex vector at their time")
    ref_s = run.reference_s()
    run.stop_tracing()
    for k in (0, grid.size // 2, grid.size - 1):
        fresh = krc.fit_scores(ds, float(grid[k]), h, krc.GAUSSIAN)
        gap = float(np.max(np.abs(fresh.scores - curve[k].scores)))
        if gap > 1e-12:
            run.fail(1, f"curve point {k} differs from fit_scores by {gap:.3e}")
    points = len(call_s) * grid.size
    op_s = sum(call_s)
    run.report.update(
        curve_points_per_s=points / op_s,
        curve_calls=len(call_s),
    )
    return _throughput(points, op_s, ref_s)


def _read_records(path: str, ds) -> list[tuple[int, int, float, int]]:
    index = {label: k for k, label in enumerate(ds.item_labels)}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(index[a], index[b], float(t), int(y)) for t, a, b, y in rows]


def run_stream(run: Run, np) -> dict:
    krc = run.krc
    shape = run.spec["shape"]
    t_eval, h = shape["t"], shape["h"]

    def build():
        ds = krc.ingest_csv(run.spec["inputs"]["stream_base"])
        state = krc.OnlineState.from_dataset(
            ds, t_eval, h, krc.GAUSSIAN, refresh_every=shape["refresh_every"]
        )
        return ds, state

    ds, state = run.setup(build)
    records = _read_records(run.spec["inputs"]["stream_records"], ds)
    latency: list[float] = []
    started = time.perf_counter()
    while len(latency) < len(records) and run.keep_going(
        started, len(latency) >= shape["min_records"]
    ):
        rec = records[len(latency)]
        with run.op():
            t0 = time.perf_counter()
            krc.apply_observation(state, rec)
            latency.append(time.perf_counter() - t0)
    run.attempted = len(latency)
    ref_s = run.reference_s()
    run.stop_tracing()
    # Criterion 2's check: the streamed state equals a batch fit of the base
    # records plus every streamed record, at the same t, h and sigma.
    streamed = np.array(records[: len(latency)], dtype=float)
    tt, ii, jj, yy = ds.in_time_order()
    combined = krc.ComparisonDataset(
        ds.n,
        np.concatenate([ii, streamed[:, 0].astype(np.int64)]),
        np.concatenate([jj, streamed[:, 1].astype(np.int64)]),
        np.concatenate([tt, streamed[:, 2]]),
        np.concatenate([yy, streamed[:, 3].astype(np.int64)]),
    )
    batch = krc.fit_scores(combined, t_eval, h, krc.GAUSSIAN, sigma_n=state.sigma_n)
    gap = float(np.max(np.abs(state.pi.scores - batch.scores)))
    if not gap <= 1e-8:
        run.fail(run.attempted, f"online scores differ from batch by {gap:.3e}")
    ms = np.asarray(latency) * 1000.0
    op_s = float(sum(latency))
    run.report.update(
        updates_per_s=len(latency) / op_s,
        update_p50_ms=float(np.percentile(ms, 50)),
        update_p99_ms=float(np.percentile(ms, 99)),
        update_samples=len(latency),
        online_batch_gap=gap,
    )
    return _throughput(len(latency), op_s, ref_s)


_BACKTEST_METHODS = ("krc", "rc", "mle")


def _check_backtest(run: Run, report, test_games: int, days: int) -> None:
    seasons = report.per_season
    games = sum(r.n_games for r in seasons)
    correct = sum(r.n_correct for r in seasons)
    problems = []
    if report.n_games + report.n_skipped != test_games:
        problems.append(
            f"games {report.n_games} + skipped {report.n_skipped} != {test_games}"
        )
    if games != report.n_games:
        problems.append(f"per-season games sum to {games}, total says {report.n_games}")
    if report.n_games and abs(correct / report.n_games - report.total_accuracy) > 1e-12:
        problems.append("per-season correct counts do not give the total accuracy")
    if not 0 <= report.n_failed_fits <= days:
        problems.append(f"{report.n_failed_fits} failed fits for {days} test days")
    if problems:
        run.fail(days, f"backtest {report.method}: " + "; ".join(problems))


def run_backtest(run: Run, np) -> dict:
    krc = run.krc
    shape = run.spec["shape"]
    base, h = shape["base_seasons"], shape["h"]
    paths = run.spec["inputs"]["leagues"]
    leagues = run.setup(lambda: [krc.ingest_csv(p) for p in paths])

    def test_shape(ds):
        tt = ds.times
        test = tt >= float(base)
        return int(test.sum()), int(np.unique(tt[test]).size)

    shapes = [test_shape(ds) for ds in leagues]
    # Seconds per (method, league).  Rates are taken per league and the
    # median kept, so one league on which MM converges slowly cannot swing
    # the figure; the geometric mean over methods weighs each the same.
    spent = {m: [0.0] * len(leagues) for m in _BACKTEST_METHODS}
    visits = [0] * len(leagues)
    failed_fits = 0

    def walk_forward(ds, test_games, days, method):
        with run.op():
            t0 = time.perf_counter()
            report = krc.backtest(ds, base_seasons=base, method=method, h=h)
            dt = time.perf_counter() - t0
        run.attempted += days
        _check_backtest(run, report, test_games, days)
        return report, dt

    started = time.perf_counter()
    k = 0
    while run.keep_going(started, k >= len(leagues)):
        league = k % len(leagues)
        for method in _BACKTEST_METHODS:
            report, dt = walk_forward(leagues[league], *shapes[league], method)
            failed_fits += report.n_failed_fits
            spent[method][league] += dt
        visits[league] += 1
        k += 1
    ref_s = run.reference_s()
    rates = {
        m: statistics.median(v * d / t for v, (_, d), t in zip(visits, shapes, spent[m]))
        for m in _BACKTEST_METHODS
    }
    run.report.update({f"{m}_days_per_s": r for m, r in rates.items()})
    if not run.timed:
        # wmle runs only in the fixed plan, once, on the first league: its
        # cost swings from seconds to a minute with how many days fail to
        # converge, which no timed figure could absorb.
        wmle, dt = walk_forward(leagues[0], *shapes[0], "wmle")
        failed_fits += wmle.n_failed_fits
        run.report.update(wmle_days_per_s=shapes[0][1] / dt,
                          wmle_failed_days=wmle.n_failed_fits)
    run.stop_tracing()
    run.report.update(failed_fits=failed_fits, leagues=len(leagues), league_visits=k)
    geo = math.exp(sum(math.log(r) for r in rates.values()) / len(rates))
    out = {"op_s": sum(map(sum, spent.values())), "ops_per_s": geo,
           "extra_failures": failed_fits}
    if ref_s is not None:
        out["ops_per_ref"] = geo * ref_s
    return out


def run_coverage(run: Run, np) -> dict:
    krc = run.krc
    shape = run.spec["shape"]
    reps = shape["replications"]
    run.setup(lambda: None)  # nothing to load: each op simulates its own data
    call_s: list[float] = []
    reports = []
    started = time.perf_counter()
    while run.keep_going(started, bool(call_s)):
        config = krc.SimConfig(
            n=shape["n"], m=shape["m"], seed=run.spec["seed"] * 1000 + 100 * len(call_s)
        )
        with run.op():
            t0 = time.perf_counter()
            reports.append(krc.coverage_experiment(
                config, t=shape["t"], h=shape["h"], level=0.95, replications=reps
            ))
            call_s.append(time.perf_counter() - t0)
        run.attempted += reps
    ref_s = run.reference_s()
    run.stop_tracing()
    for rep in reports:
        problems = []
        if rep.n_replications != reps:
            problems.append(f"n_replications {rep.n_replications} != {reps}")
        cov = np.asarray(rep.per_item_coverage)
        if cov.shape != (shape["n"],) or not np.all((cov >= 0) & (cov <= 1)):
            problems.append("per-item coverage outside [0, 1]")
        for name in ("mean_abs_correlation", "level"):
            value = getattr(rep, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{name}={value} outside [0, 1]")
        for name in ("mean_ci_halfwidth", "ad_statistic", "ad_critical_1pct"):
            if not math.isfinite(getattr(rep, name)):
                problems.append(f"{name} is not finite")
        if not 0 <= rep.n_disconnected <= reps:
            problems.append(f"n_disconnected={rep.n_disconnected}")
        if problems:
            run.fail(reps, "coverage: " + "; ".join(problems))
    op_s = sum(call_s)
    run.report.update(
        reps_per_s=reps * len(call_s) / op_s,
        mean_coverage=float(np.mean([np.mean(r.per_item_coverage) for r in reports])),
    )
    return _throughput(reps * len(call_s), op_s, ref_s)


# -- reference probes --------------------------------------------------------
# Each returns a closure over fixed inputs that repeats, without krc, the
# kind of work that dominates the workload: a few milliseconds per call.


def _curve_probe(np):
    """A kernel pass with per-segment sums, as in pair_fractions."""
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(size=250_000))
    won = rng.random(t.size) < 0.5
    starts = np.arange(0, t.size, 50)

    def probe():
        w = np.exp(-0.5 * ((0.5 - t) / 0.1) ** 2)
        np.add.reduceat(w, starts)
        np.add.reduceat(np.where(won, w, 0.0), starts)

    return probe


def _stream_probe(np):
    """A closed-form rank-one update of a dense 500x500 matrix."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((500, 500))
    delta = rng.standard_normal(500)
    ones = np.ones(500)

    def probe():
        dG = delta @ G
        G + np.outer(ones, dG @ G) - np.outer(G[:, 0], dG)

    return probe


def _backtest_probe(np):
    """Power iteration on a 12-item chain: many small numpy calls."""
    P = np.full((12, 12), 1.0 / 12)

    def probe():
        p = np.full(12, 1.0 / 12)
        for _ in range(300):
            nxt = p @ P
            nxt /= nxt.sum()
            float(np.max(np.abs(nxt - p)))
            p = nxt

    return probe


def _coverage_probe(np):
    """Per-pair generators and draws, as a simulator does, then a per-pair
    weighted sum, as a connectivity check does."""

    def probe():
        for j in range(1, 80):
            rng = np.random.default_rng((7, 0, j))
            t = np.sort(rng.uniform(0.0, 1.0, size=60))
            s = 2.0 + np.sin(5.0 * t)
            won = rng.random(60) < s / (s + 2.0)
            w = np.exp(-0.5 * ((0.5 - t) / 0.01) ** 2)
            float(w[won].sum()) > 0.0

    return probe


WORKLOADS = {
    "curve": (run_curve, _curve_probe),
    "stream": (run_stream, _stream_probe),
    "backtest": (run_backtest, _backtest_probe),
    "coverage": (run_coverage, _coverage_probe),
}


def _provenance(np, scipy) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f'{deps["blas"]["name"]} {deps["blas"]["version"]}'
    except (KeyError, TypeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KRC_THREADS"
        )},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    setup_probe: list[float] = []
    if spec["plan"] == "timed":
        _setup_probe(setup_probe)
    t0 = time.perf_counter()
    import krc
    import_s = time.perf_counter() - t0
    if spec["plan"] == "timed":
        _setup_probe(setup_probe)
    if Path(krc.__file__).resolve().parent != (src / "krc").resolve():
        raise SystemExit(f"imported krc from {krc.__file__}, not from {src}")
    import numpy as np
    import scipy

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload, make_probe = WORKLOADS[spec["workload"]]
    run = Run(spec, krc, tracer, make_probe(np))
    run.setup_probe_samples = setup_probe
    try:
        out = workload(run, np)
    except Exception as exc:  # report the failure instead of a bare traceback
        traceback.print_exc()
        run.fail(max(run.attempted, 1), f"{type(exc).__name__}: {exc}")
        out = None
    result = {
        "workload": spec["workload"],
        "import_s": import_s,
        "setup_samples": run.setup_samples,
        "setup_scale": (SETUP_PROBE_NOMINAL_S / statistics.mean(setup_probe)
                        if setup_probe else None),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "problems": run.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(np, scipy),
        "report": run.report,
        "out": out,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(Path(spec["trace_out"]), {
            "workload": spec["workload"], "seed": spec["seed"], "commit": spec["commit"],
            "shape": spec["shape"], "provenance": result["provenance"],
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
