"""Command line interface.

Subcommands cover the full pipeline: simulate data, fit scores at a time
point, trace score curves, stream updates, compute confidence intervals,
and run the bandwidth sweep, timing, coverage, and backtest experiments.
Tabular output is CSV; experiment reports are JSON.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict

import numpy as np

from .data import _NUMBERS, ComparisonRecord, _error, ingest_csv
from .errors import KrcError
from .estimator import ScoreVector, estimate_curve, fit_scores
from .experiments import (
    backtest,
    bandwidth_sweep,
    coverage_experiment,
    metric_grid,
    timing_bench,
)
from .inference import pairwise_win_ci, plug_in_alpha, score_ci
from .kernels import kernel_by_name
from .online import OnlineState, apply_observation
from .simulate import SimConfig, export_truth_csv, generate
from .util import float_token, format_float_array, write_csv


def _write_curve(path: str, curve: list[ScoreVector], labels) -> None:
    header = ["t"] + list(labels)
    rows = []
    for sv in curve:
        t_cell = "" if sv.t is None else float_token(sv.t)
        rows.append([t_cell] + format_float_array(sv.scores))
    write_csv(path, header, rows)


def _items(text: str, flag: str, what: str, parse) -> list:
    """The parsed items of a comma-separated flag value, blank ones skipped;
    a value that holds no item is a KrcError."""
    items = [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not items:
        raise KrcError(f"{flag} {text!r} holds no {what}")
    return items


def _pair(dataset, token: str) -> tuple[int, int]:
    """The item indices of a ``--pairs`` token: two labels joined by one colon."""
    labels = [label.strip() for label in token.split(":")]
    if len(labels) != 2 or not all(labels):
        raise KrcError(f"--pairs token {token!r} is not two labels A:B")
    return dataset.index_of(labels[0]), dataset.index_of(labels[1])


def _write_report(path: str, report) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, default=lambda o: o.tolist())
        fh.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krc",
        description="Dynamic ranking from timestamped pairwise comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_fit(p):
        p.add_argument("--data", required=True, help="comparison CSV path")
        p.add_argument("--h", type=float, required=True, help="bandwidth")
        p.add_argument("--kernel", default="gaussian")
        p.add_argument("--sigma", type=float, default=None,
                       help="teleport weight (default 1/n)")
        p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skill-family", default="sine",
                   choices=("sine", "constant"))
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--truth-out", default=None,
                   help="optional truth curve CSV on the k/M grid")

    p = sub.add_parser("fit", help="scores at one evaluation time")
    add_common_fit(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("curve", help="scores along a time grid")
    add_common_fit(p)
    p.add_argument("--grid", default=None, help="comma-separated times")
    p.add_argument("--m", type=int, default=None,
                   help="use the interior grid k/M instead of --grid")
    p.add_argument("--out", required=True)

    p = sub.add_parser("update-stream",
                       help="stream records from stdin into a running fit")
    add_common_fit(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--refresh-every", type=int, default=500)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ci", help="confidence intervals at one time")
    add_common_fit(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True, help="per-item score CI CSV")
    p.add_argument("--pairs", default=None,
                   help="'all' or comma-separated label pairs A:B for win CIs")
    p.add_argument("--pairs-out", default=None)

    p = sub.add_parser("sweep", help="bandwidth sweep on simulated data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h-grid", required=True, help="comma-separated bandwidths")
    p.add_argument("--methods", default="krc,wmle,rc")
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="timing comparison on simulated data")
    p.add_argument("--n-grid", required=True, help="comma-separated sizes")
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("coverage", help="confidence interval calibration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--out", required=True, help="JSON report path")

    p = sub.add_parser("backtest", help="walk-forward season accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--base-seasons", type=int, required=True)
    p.add_argument("--method", default="krc",
                   choices=("krc", "rc", "wmle", "mle", "elo"))
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--out", required=True, help="JSON report path")
    return parser


def _cmd_simulate(args) -> int:
    config = SimConfig(
        n=args.n, m=args.m, seed=args.seed, skill_family=args.skill_family
    )
    dataset, truth = generate(config)
    dataset.export_csv(args.out)
    if args.truth_out:
        export_truth_csv(
            truth, metric_grid(args.m), args.truth_out, labels=dataset.item_labels
        )
    return 0


def _cmd_fit(args) -> int:
    dataset = ingest_csv(args.data)
    kernel = kernel_by_name(args.kernel)
    sv = fit_scores(dataset, args.t, args.h, kernel, args.sigma, tol=args.tol)
    _write_curve(args.out, [sv], dataset.item_labels)
    return 0


def _cmd_curve(args) -> int:
    dataset = ingest_csv(args.data)
    kernel = kernel_by_name(args.kernel)
    if (args.grid is None) == (args.m is None):
        raise KrcError("curve needs exactly one of --grid or --m")
    grid = _items(args.grid, "--grid", "time", float) if args.m is None else metric_grid(args.m)
    curve = estimate_curve(dataset, grid, args.h, kernel, args.sigma, tol=args.tol)
    _write_curve(args.out, curve, dataset.item_labels)
    return 0


def _cmd_update_stream(args) -> int:
    dataset = ingest_csv(args.data)
    kernel = kernel_by_name(args.kernel)
    state = OnlineState.from_dataset(
        dataset, args.t, args.h, kernel,
        sigma_n=args.sigma, refresh_every=args.refresh_every, tol=args.tol,
    )
    index = {lab: k for k, lab in enumerate(dataset.item_labels)}
    n_seen = 0
    reader = csv.reader(sys.stdin)  # the dialect ingest_csv reads
    for row in reader:
        if not any(f.strip() for f in row) or row[0].strip().lower() == "time":
            continue
        try:
            record = _stream_record(row, index)
        except KrcError as exc:
            raise KrcError(f"stdin line {reader.line_num}: {exc}") from None
        apply_observation(state, record)
        n_seen += 1
    _write_curve(args.out, [state.pi], dataset.item_labels)
    print(f"applied {n_seen} records", file=sys.stderr)
    return 0


def _stream_record(row: list[str], index: dict[str, int]) -> ComparisonRecord:
    """The record in one row of raw time,item_i,item_j,outcome fields, or the
    error that ingest gives the first check the row fails: numbers parse and
    messages quote the raw fields as there, and only labels are stripped."""
    if len(row) != 4:
        raise _error("width", width=4, got=len(row))
    raw = dict(zip(("time", "item_i", "item_j", "outcome"), row))
    label_i, label_j = raw["item_i"].strip(), raw["item_j"].strip()
    try:
        t = _NUMBERS["time"][0](raw["time"])
    except ValueError:
        raise _error("time", **raw) from None
    if not np.isfinite(t):
        raise _error("finite", **raw)
    for col, label in (("item_i", label_i), ("item_j", label_j)):
        if not label:
            raise _error(f"empty {col}")
        if label not in index:
            raise _error(f"unknown {col}", label_i=label_i, label_j=label_j)
    if label_i == label_j:
        raise _error("self", **raw)
    try:
        outcome = _NUMBERS["outcome"][0](raw["outcome"])
    except ValueError:
        raise _error("outcome", **raw) from None
    if outcome not in (0.0, 1.0):
        raise _error("tie", **raw)
    return ComparisonRecord(index[label_i], index[label_j], t, int(outcome))


def _cmd_ci(args) -> int:
    dataset = ingest_csv(args.data)
    kernel = kernel_by_name(args.kernel)
    sv = fit_scores(dataset, args.t, args.h, kernel, args.sigma, tol=args.tol)
    params = plug_in_alpha(sv, dataset, args.t, args.h, kernel)
    rows = []
    for k, label in enumerate(dataset.item_labels):
        ci = score_ci(sv, params, k, args.level)
        rows.append(
            (label, float_token(ci.point), float_token(ci.lower),
             float_token(ci.upper), float_token(ci.level))
        )
    write_csv(args.out, ("item", "point", "lower", "upper", "level"), rows)
    if args.pairs:
        if args.pairs_out is None:
            raise KrcError("--pairs requires --pairs-out")
        if args.pairs.lower() == "all":
            pair_list = itertools.permutations(range(dataset.n), 2)
        else:
            pair_list = _items(
                args.pairs, "--pairs", "pair", lambda token: _pair(dataset, token)
            )
        prows = []
        for a, b in pair_list:
            ci = pairwise_win_ci(sv, params, a, b, args.level)
            prows.append(
                (dataset.item_labels[a], dataset.item_labels[b],
                 float_token(ci.point), float_token(ci.lower),
                 float_token(ci.upper), float_token(ci.level))
            )
        write_csv(
            args.pairs_out,
            ("item_i", "item_j", "point", "lower", "upper", "level"),
            prows,
        )
    return 0


def _cmd_sweep(args) -> int:
    table = bandwidth_sweep(
        SimConfig(n=args.n, m=args.m, seed=args.seed),
        _items(args.h_grid, "--h-grid", "bandwidth", float),
        methods=tuple(_items(args.methods, "--methods", "method", str)),
        kernel=kernel_by_name(args.kernel),
        replications=args.reps,
        sigma_n=args.sigma,
    )
    rows = [
        (c.method, "" if c.h is None else float_token(c.h),
         float_token(c.rmse_mean), float_token(c.linf_mean),
         c.n_ok, c.n_failures)
        for c in table.cells
    ]
    write_csv(
        args.out,
        ("method", "h", "rmse_mean", "linf_mean", "n_ok", "n_failures"),
        rows,
    )
    return 0


def _cmd_bench(args) -> int:
    rows = timing_bench(
        _items(args.n_grid, "--n-grid", "size", int),
        m=args.m,
        h=args.h,
        kernel=kernel_by_name(args.kernel),
        repetitions=args.reps,
        seed=args.seed,
    )
    write_csv(
        args.out,
        ("method", "n", "median_seconds"),
        ((r.method, r.n, float_token(r.median_seconds)) for r in rows),
    )
    return 0


def _cmd_coverage(args) -> int:
    report = coverage_experiment(
        SimConfig(n=args.n, m=args.m, seed=args.seed),
        t=args.t,
        h=args.h,
        level=args.level,
        replications=args.reps,
        kernel=kernel_by_name(args.kernel),
        sigma_n=args.sigma,
    )
    _write_report(args.out, report)
    return 0


def _cmd_backtest(args) -> int:
    dataset = ingest_csv(args.data)
    report = backtest(
        dataset,
        args.base_seasons,
        method=args.method,
        h=args.h,
        kernel=kernel_by_name(args.kernel),
        sigma_n=args.sigma,
    )
    _write_report(args.out, report)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "curve": _cmd_curve,
    "update-stream": _cmd_update_stream,
    "ci": _cmd_ci,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "coverage": _cmd_coverage,
    "backtest": _cmd_backtest,
}


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (KrcError, OSError, ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
