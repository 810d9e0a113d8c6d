"""Self-test of the benchmark at smoke size.

Usage, from the repository root: ``python3 benchmarks/selftest.py``.
Exits 0 when every check passes.  It checks that

* the input generator gives identical CSV bytes for the same seed and
  different bytes for a different seed;
* every workload, untraced, passes its correctness checks and prints every
  end-to-end metric of BENCHMARK.json with its unit;
* every workload, traced, prints every per-layer metric, with calls
  recorded for each function the workload is known to call;
* without a krc package beside it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

# Per-layer functions each workload must call, by metric prefix.
EXPECTED_CALLS = {
    "curve": (
        "data.ingest_csv", "kernels.weight", "estimator.estimate_curve",
        "estimator.fit_scores", "estimator.pair_fractions",
        "estimator.transition_from_fractions", "estimator.stationary",
    ),
    "stream": (
        "data.ingest_csv", "kernels.weight", "estimator.stationary",
        "online.from_dataset", "online.apply_observation",
        "online.rank_one_update", "online.refresh", "online.group_inverse",
    ),
    "backtest": (
        "data.ingest_csv", "data.with_max_time", "kernels.weight",
        "estimator.fit_scores", "estimator.pair_fractions",
        "estimator.transition_from_fractions", "estimator.stationary",
        "baselines.static_rank_centrality", "baselines.bt_mle_mm",
        "baselines.wmle", "experiments.backtest",
    ),
    "coverage": (
        "data.check_strong_connectivity", "kernels.weight",
        "estimator.fit_scores", "estimator.pair_fractions",
        "estimator.transition_from_fractions", "estimator.stationary",
        "inference.plug_in_alpha", "simulate.generate",
        "experiments.coverage_experiment",
    ),
}


def check_generator(errors: list[str]) -> None:
    sine = inputs.SineDesign(6, 3)
    season = inputs.SeasonDesign(6, 3, 4, 3, 1.2, 0.4)
    builders = {
        "curve": lambda seed: [inputs.curve_csv(seed, sine)],
        "stream": lambda seed: list(inputs.stream_csvs(seed, sine, 25)),
        "league": lambda seed: [inputs.league_csv(seed, 0, season)],
    }
    saved = inputs.CACHE_DIR
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".cache"))
    try:
        def read(name, seed, run):
            inputs.CACHE_DIR = scratch / f"{run}"
            return [p.read_bytes() for p in builders[name](seed)]

        for name in builders:
            if read(name, 3, "a") != read(name, 3, "b"):
                errors.append(f"{name}: same seed gave different CSV bytes")
            if any(x == y for x, y in zip(read(name, 3, "a"), read(name, 4, "c"))):
                errors.append(f"{name}: different seeds gave identical CSV bytes")
    finally:
        inputs.CACHE_DIR = saved
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            errors.append(f"{where}: metric {metric['name']} missing or without unit")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: unexpected metrics printed")
    if trace:
        for prefix in EXPECTED_CALLS[workload]:
            if not result["metrics"].get(f"{prefix}.calls", {}).get("value"):
                errors.append(f"{where}: no calls recorded for {prefix}")
    return errors


def check_missing_program(errors: list[str]) -> None:
    """A checkout holding only the benchmark must fail without a result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / ".cache"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns(
            ".cache", "__pycache__"))
        proc = _run("curve", 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            errors.append("bare checkout: expected a non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != (
        tracing.per_layer_metric_names()
    ):
        errors.append("BENCHMARK.json per_layer differs from tracing.per_layer_metric_names()")
    (HERE / ".cache").mkdir(exist_ok=True)
    check_generator(errors)
    check_missing_program(errors)
    jobs = [(w, trace) for w in EXPECTED_CALLS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for found in pool.map(lambda job: check_workload(*job, spec), jobs):
            errors.extend(found)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
