"""krc benchmark: seeded closed-loop workloads over krc's public Python API.

Usage, from the repository root:

    python3 benchmarks/run.py --workload curve --seed 1 --seconds 8 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 8 --trace 0

Workloads: ``curve``, ``stream``, ``backtest``, ``coverage`` (see
``benchmarks/README.md``), or ``all`` to run each in turn.  Every workload
runs in a fresh subprocess with BLAS and krc pinned to one thread.

With ``--trace 0`` the last stdout line is ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the workload runs a fixed amount of work twice, untraced
and then traced, and the metrics are the per-layer ones, the tracing
overhead among them.  Lines before the last give provenance and the
workload's own figures.  The exit code is 0 only when every correctness
check passed.  ``--size smoke`` shrinks every input for a quick self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "KRC_THREADS": "1",
}
# Set before numpy loads here (input generation) and in every child.
os.environ.update(THREAD_ENV)

import inputs  # noqa: E402  (numpy loads here, after the thread settings)
import tracing  # noqa: E402

WORKLOAD_NAMES = ("curve", "stream", "backtest", "coverage")
DEADLINE_S = 170.0

# Input shapes.  "full" is the benchmark; "smoke" only exercises the code.
SHAPES = {
    "full": {
        "curve": {"n": 100, "m": 200, "grid": 200, "h": 0.1, "setup_reps": 2},
        "stream": {"n": 500, "m": 1, "extra": 20_000, "min_records": 2000,
                   "t": 0.5, "h": 0.1, "refresh_every": 500, "setup_reps": 2},
        "backtest": {"n": 12, "n_seasons": 10, "days_per_season": 12,
                     "games_per_day": 5, "drift": 1.2, "spread": 0.4,
                     "leagues": 12, "base_seasons": 3, "h": 0.8, "setup_reps": 3},
        "coverage": {"n": 40, "m": 60, "t": 0.5, "h": 0.01, "replications": 100,
                     "setup_reps": 3},
    },
    "smoke": {
        "curve": {"n": 8, "m": 10, "grid": 10, "h": 0.1, "setup_reps": 2},
        "stream": {"n": 12, "m": 1, "extra": 400, "min_records": 120,
                   "t": 0.5, "h": 0.3, "refresh_every": 50, "setup_reps": 2},
        "backtest": {"n": 6, "n_seasons": 4, "days_per_season": 4,
                     "games_per_day": 3, "drift": 1.2, "spread": 0.4,
                     "leagues": 2, "base_seasons": 2, "h": 0.8, "setup_reps": 3},
        "coverage": {"n": 5, "m": 10, "t": 0.5, "h": 0.2, "replications": 100,
                     "setup_reps": 3},
    },
}


def build_inputs(workload: str, seed: int, shape: dict) -> dict:
    """Input files for one run; generation happens here, outside every metric."""
    if workload == "curve":
        return {"curve": str(inputs.curve_csv(seed, inputs.SineDesign(shape["n"], shape["m"])))}
    if workload == "stream":
        base, records = inputs.stream_csvs(
            seed, inputs.SineDesign(shape["n"], shape["m"]), shape["extra"]
        )
        return {"stream_base": str(base), "stream_records": str(records)}
    if workload == "backtest":
        design = inputs.SeasonDesign(
            shape["n"], shape["n_seasons"], shape["days_per_season"],
            shape["games_per_day"], shape["drift"], shape["spread"],
        )
        return {"leagues": [str(inputs.league_csv(seed, k, design))
                            for k in range(shape["leagues"])]}
    return {}


def _child(spec: dict, deadline: float) -> dict:
    """Run workloads.py in a fresh process and parse its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("benchmark deadline passed before the next subprocess")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env=os.environ.copy(), stdout=subprocess.PIPE, text=True,
        timeout=remaining,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{spec['workload']} subprocess exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, args, deadline: float) -> tuple[dict, dict]:
    """(result for the JSON line, figures for the human-readable report)."""
    shape = SHAPES[args.size][workload]
    commit = git_commit()
    spec = {
        "root": str(ROOT), "workload": workload, "seed": args.seed, "commit": commit,
        "seconds": args.seconds, "shape": shape,
        "inputs": build_inputs(workload, args.seed, shape),
    }
    if not args.trace:
        res = _child({**spec, "plan": "timed", "trace": False}, deadline)
        out = res["out"]
        if out is None:
            raise RuntimeError(f"{workload} raised: {res['problems']}")
        # Seconds at the nominal host speed of the set-up probe (workloads.py).
        setup_s = (res["import_s"] + statistics.median(res["setup_samples"])) * res["setup_scale"]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "ops_per_ref": _metric(out["ops_per_ref"], "1/ref"),
        }
        figures = {**res["report"], "ops_per_s": out["ops_per_s"],
                   "setup_plain_s": res["import_s"] + statistics.median(res["setup_samples"])}
        figures["fail_frac"] = (res["failed"] + out.get("extra_failures", 0)) / res["attempted"]
    else:
        trace_out = HERE / ".cache" / "traces" / f"{workload}-seed{args.seed}.json"
        ref = _child({**spec, "plan": "fixed", "trace": False}, deadline)
        res = _child({**spec, "plan": "fixed", "trace": True,
                      "trace_out": str(trace_out)}, deadline)
        if ref["out"] is None or res["out"] is None:
            raise RuntimeError(f"{workload} raised: {ref['problems'] + res['problems']}")
        overhead = res["out"]["op_s"] / ref["out"]["op_s"] - 1.0
        units = {name: unit for name, unit, _ in tracing.per_layer_metric_names()}
        layers = {**res["layers"], "trace.overhead_frac": overhead}
        metrics = {name: _metric(layers[name], units[name]) for name in units}
        # Figures come from the untraced reference; the trace only adds layers.
        figures = {**ref["report"],
                   "fail_frac": (ref["failed"] + ref["out"].get("extra_failures", 0))
                   / ref["attempted"],
                   "trace_file": str(trace_out.relative_to(ROOT))}
        res["failed"] += ref["failed"]
        res["problems"] += ref["problems"]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    provenance = {**res["provenance"], "seed": args.seed, "commit": commit,
                  "size": args.size, "plan": "fixed" if args.trace else "timed"}
    return result, {"provenance": provenance, "figures": figures,
                    "problems": res["problems"]}


def _print_report(workload: str, result: dict, info: dict) -> None:
    print(f"== {workload}")
    print("provenance " + json.dumps(info["provenance"], sort_keys=True))
    for name, value in info["figures"].items():
        print(f"  {name} = {value}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in info["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SHAPES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "krc" / "__init__.py").is_file():
        print(f"benchmark: no krc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, info = run_workload(name, args, time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            print(f"benchmark: {name} failed: {exc}", file=sys.stderr)
            return 1
        _print_report(name, result, info)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
