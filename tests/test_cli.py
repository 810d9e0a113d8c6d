"""Command-line entry points, exercised in-process and over pipes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krc
from krc.cli import cli_dispatch
from krc.simulate import generate_season_dataset


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run(argv):
    return cli_dispatch([str(a) for a in argv])


@pytest.fixture()
def sim_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = run(["simulate", "--n", 4, "--m", 12, "--seed", 5, "--out", out])
    assert code == 0
    return out


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "d.csv"
    truth_out = tmp_path / "truth.csv"
    code = run(
        ["simulate", "--n", 3, "--m", 6, "--seed", 1,
         "--out", out, "--truth-out", truth_out]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["time", "item_i", "item_j", "outcome"]
    assert len(rows) == 1 + 6 * 3
    truth_rows = read_rows(truth_out)
    assert truth_rows[0][0] == "t"
    assert len(truth_rows) == 1 + 5  # interior grid of m=6


def test_fit_outputs_scores(sim_csv, tmp_path):
    out = tmp_path / "scores.csv"
    code = run(
        ["fit", "--data", sim_csv, "--t", 0.5, "--h", 0.2, "--out", out]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0][0] == "t"
    assert len(rows) == 2
    scores = np.array([float(x) for x in rows[1][1:]])
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_curve_grid_and_m_are_exclusive(sim_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run(
        ["curve", "--data", sim_csv, "--h", 0.2, "--m", 4,
         "--grid", "0.5", "--out", out]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err
    code = run(["curve", "--data", sim_csv, "--h", 0.2, "--m", 4, "--out", out])
    assert code == 0
    rows = read_rows(out)
    assert [r[0] for r in rows[1:]] == ["0.25", "0.5", "0.75"]


def test_curve_explicit_grid(sim_csv, tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        ["curve", "--data", sim_csv, "--h", 0.2,
         "--grid", "0.3,0.7", "--out", out]
    )
    assert code == 0
    assert len(read_rows(out)) == 3


@pytest.mark.parametrize("grid", ["", ","])
def test_curve_rejects_a_grid_without_a_time(sim_csv, tmp_path, capsys, grid):
    # An empty --grid fell through to metric_grid(None) and raised a
    # TypeError; "," wrote a CSV of the header alone and exited 0.
    out = tmp_path / "curve.csv"
    code = run(["curve", "--data", sim_csv, "--h", 0.2, "--grid", grid, "--out", out])
    assert code == 2
    assert "holds no time" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_a_time_that_is_not_finite(sim_csv, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    code = run(["fit", "--data", sim_csv, "--t", "nan", "--h", 0.2, "--out", out])
    assert code == 2
    assert "evaluation time must be finite, got nan" in capsys.readouterr().err


def test_fit_rejects_a_nan_tol(sim_csv, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    code = run(["fit", "--data", sim_csv, "--t", 0.5, "--h", 0.2, "--tol", "nan", "--out", out])
    assert code == 2
    assert "tol must be non-negative, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_ci_command(sim_csv, tmp_path):
    out = tmp_path / "ci.csv"
    pairs_out = tmp_path / "pairs.csv"
    code = run(
        ["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3,
         "--level", 0.9, "--out", out,
         "--pairs", "item_0:item_1", "--pairs-out", pairs_out]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["item", "point", "lower", "upper", "level"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row[2]) <= float(row[1]) <= float(row[3])
    prow = read_rows(pairs_out)[1]
    assert prow[0] == "item_0" and prow[1] == "item_1"
    assert 0.0 <= float(prow[3]) <= float(prow[2]) <= float(prow[4]) <= 1.0


def test_ci_pairs_requires_out(sim_csv, tmp_path, capsys):
    code = run(
        ["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3,
         "--out", tmp_path / "ci.csv", "--pairs", "all"]
    )
    assert code == 2
    assert "pairs-out" in capsys.readouterr().err
    assert not (tmp_path / "ci.csv").exists()


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--n", 4, "--m", 10, "--seed", 2,
         "--h-grid", "0.1,0.4", "--methods", "krc,rc", "--out", out]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0][0] == "method"
    methods = {r[0] for r in rows[1:]}
    assert methods == {"krc", "rc"}


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", "--n-grid", "5", "--m", 8, "--reps", 2, "--out", out]
    )
    assert code == 0
    rows = read_rows(out)
    assert {r[0] for r in rows[1:]} == {"krc", "wmle"}


def test_bench_rejects_zero_repetitions(tmp_path, capsys):
    # --reps 0 took the median of no times: nan rows, or a RuntimeWarning.
    out = tmp_path / "bench.csv"
    code = run(["bench", "--n-grid", "5", "--m", 8, "--reps", 0, "--out", out])
    assert code == 2
    assert "repetitions must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_coverage_rejects_small_reps(tmp_path, capsys):
    code = run(
        ["coverage", "--n", 4, "--m", 10, "--reps", 50,
         "--out", tmp_path / "cov.json"]
    )
    assert code == 2
    assert "100" in capsys.readouterr().err


def test_coverage_rejects_a_level_outside_the_unit_interval(tmp_path, capsys):
    # It named 0.5 * (1 + level), the quantile argument, not the level.
    code = run(
        ["coverage", "--n", 4, "--m", 10, "--reps", 100, "--level", 1.2,
         "--out", tmp_path / "cov.json"]
    )
    assert code == 2
    assert "level must be in (0, 1), got 1.2" in capsys.readouterr().err


def test_backtest_command(tmp_path):
    ds, _ = generate_season_dataset(
        n=6, n_seasons=3, days_per_season=4, games_per_day=3, seed=7
    )
    data = tmp_path / "seasons.csv"
    ds.export_csv(str(data))
    out = tmp_path / "bt.json"
    code = run(
        ["backtest", "--data", data, "--base-seasons", 2,
         "--method", "rc", "--out", out]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "rc"
    assert report["n_games"] + report["n_skipped"] == 4 * 3
    assert isinstance(report["per_season"], list)


def test_backtest_report_is_strict_json(tmp_path):
    # The one test game is skipped, so the accuracy is NaN, which JSON has
    # no token for: the report writes it as null.
    ds, _ = generate_season_dataset(n=4, n_seasons=2, days_per_season=1, games_per_day=1, seed=0)
    data = tmp_path / "seasons.csv"
    ds.export_csv(str(data))
    out = tmp_path / "bt.json"
    assert run(["backtest", "--data", data, "--base-seasons", 1, "--out", out]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["total_accuracy"] is None
    assert report["n_games"] == 0 and report["n_skipped"] == 1


@pytest.mark.parametrize("argv", [
    ["fit", "--t", 0.5],
    ["curve", "--m", 4],
    ["update-stream", "--t", 0.5],
    ["ci", "--t", 0.5],
    ["backtest", "--base-seasons", 1],
])
def test_a_bad_kernel_is_reported_before_the_data_is_read(tmp_path, capsys, argv):
    missing = tmp_path / "nope.csv"
    code = run(argv + ["--data", missing, "--h", 0.2, "--kernel", "gauss",
                       "--out", tmp_path / "out.csv"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown kernel 'gauss'")


@pytest.mark.parametrize("argv, message", [
    (["--m", 1], "need m >= 2"),
    (["--grid", ","], "holds no time"),
    ([], "exactly one of --grid or --m"),
])
def test_curve_checks_its_grid_before_the_data_is_read(tmp_path, capsys, argv, message):
    code = run(["curve", "--data", tmp_path / "nope.csv", "--h", 0.2,
                "--out", tmp_path / "c.csv"] + argv)
    assert code == 2
    assert message in capsys.readouterr().err


def test_missing_data_file_is_error(tmp_path, capsys):
    code = run(
        ["fit", "--data", tmp_path / "nope.csv", "--t", 0.5,
         "--h", 0.2, "--out", tmp_path / "out.csv"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_nonzero(capsys):
    assert run(["frobnicate"]) != 0
    capsys.readouterr()


def test_update_stream_subprocess(sim_csv, tmp_path):
    out = tmp_path / "scores.csv"
    lines = "time,item_i,item_j,outcome\n0.52,item_0,item_1,1\n0.53,item_2,item_3,0\n"
    proc = subprocess.run(
        [sys.executable, "-m", "krc.cli", "update-stream",
         "--data", str(sim_csv), "--t", "0.5", "--h", "0.2", "--out", str(out)],
        input=lines,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "applied 2 records" in proc.stderr
    rows = read_rows(out)
    scores = np.array([float(x) for x in rows[1][1:]])
    assert scores.sum() == pytest.approx(1.0, abs=1e-10)


def test_update_stream_reads_quoted_labels(tmp_path):
    # stdin is read in the csv dialect of --data: a quoted label may hold a comma
    data = tmp_path / "quoted.csv"
    rows = [(f"0.{k + 1}", "\"A, Inc\"", "B", k % 2) for k in range(6)]
    data.write_text("time,item_i,item_j,outcome\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    out = tmp_path / "scores.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "krc.cli", "update-stream",
         "--data", str(data), "--t", "0.5", "--h", "0.2", "--out", str(out)],
        input="time,item_i,item_j,outcome\n0.52,\"A, Inc\",B,1\n0.53,B,\"A, Inc\",0\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "applied 2 records" in proc.stderr
    assert read_rows(out)[0] == ["t", "A, Inc", "B"]


def test_update_stream_rejects_ties(sim_csv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "krc.cli", "update-stream",
         "--data", str(sim_csv), "--t", "0.5", "--h", "0.2",
         "--out", str(tmp_path / "s.csv")],
        input="0.5,item_0,item_1,0.5\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "ties unsupported" in proc.stderr


def test_update_stream_unknown_label(sim_csv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "krc.cli", "update-stream",
         "--data", str(sim_csv), "--t", "0.5", "--h", "0.2",
         "--out", str(tmp_path / "s.csv")],
        input="0.5,item_0,mystery,1\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "mystery" in proc.stderr


def test_update_stream_rejects_a_time_that_is_not_finite(sim_csv, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["update-stream", "--data", sim_csv, "--t", "nan", "--h", 0.2, "--out", out]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: evaluation time must be finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("nan,item_0,item_1,1", "non-finite time 'nan'"),
    ("0.5,item_0, item_0 ,1", "self-comparison 'item_0'"),
    ("x,item_0,item_1,1", "bad time 'x'"),
    ("0.5,item_0,item_1,0.5", "outcome must be 0 or 1, got '0.5' (ties unsupported)"),
    ("0.5,item_0,item_1", "expected 4 fields, got 3"),
    ("0.5,item_0,mystery,1", "label 'mystery' not in roster"),
])
def test_update_stream_names_the_line(sim_csv, tmp_path, row, message):
    proc = subprocess.run(
        [sys.executable, "-m", "krc.cli", "update-stream",
         "--data", str(sim_csv), "--t", "0.5", "--h", "0.2",
         "--out", str(tmp_path / "s.csv")],
        input=f"time,item_i,item_j,outcome\n0.4,item_0,item_1,1\n{row}\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: stdin line 3: {message}\n"
    assert not (tmp_path / "s.csv").exists()


# One row per unit-interval row check of ingest, in its order.
UNIT_ROW_CHECKS = [
    "0.5,item_0,item_1",  # width
    "x,item_0,item_1,1",  # time
    "nan,item_0,item_1,1",  # finite
    "0.5,,item_1,1",  # empty item_i
    "0.5,mystery,item_1,1",  # unknown item_i
    "0.5,item_0,,1",  # empty item_j
    "0.5,item_0,mystery,1",  # unknown item_j
    "0.5,item_0,item_0,1",  # self
    "0.5,item_0,item_1,x",  # outcome
    "0.5,item_0,item_1,0.5",  # tie
]
PADDED_ROWS = [",".join(f" {f} " for f in row.split(",")) for row in UNIT_ROW_CHECKS]


@pytest.mark.parametrize("row", UNIT_ROW_CHECKS + PADDED_ROWS + ["\x1c0.25,item_0,item_1,1"])
def test_update_stream_rejects_a_row_as_ingest_does(
    sim_csv, tmp_path, monkeypatch, capsys, row
):
    # Stdin rows were stripped before parsing: a time padded with a C0
    # separator was folded, and messages quoted the stripped fields.
    text = f"time,item_i,item_j,outcome\n0.4,item_0,item_1,1\n{row}\n"
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(krc.KrcError) as ingest:
        krc.ingest_csv(str(path), roster=krc.ingest_csv(str(sim_csv)).item_labels)
    assert str(ingest.value).startswith("row 3: ")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out = tmp_path / "s.csv"
    assert run(["update-stream", "--data", sim_csv, "--t", 0.5, "--h", 0.2, "--out", out]) == 2
    message = str(ingest.value).removeprefix("row 3: ")
    assert capsys.readouterr().err == f"error: stdin line 3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bench", "--n-grid", ","], "--n-grid ',' holds no size"),
    (["sweep", "--n", 4, "--m", 10, "--h-grid", ",", "--methods", "krc"],
     "--h-grid ',' holds no bandwidth"),
    (["sweep", "--n", 4, "--m", 10, "--h-grid", "0.1", "--methods", " , "],
     "--methods ' , ' holds no method"),
    (["sweep", "--n", 4, "--m", 10, "--h-grid", "0.1", "--methods", "krc", "--reps", 0],
     "replications must be >= 1, got 0"),
])
def test_experiments_reject_a_list_without_an_item(tmp_path, capsys, argv, message):
    # Each wrote a CSV of the header alone (NaN cells for --reps 0) and exited 0.
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_ci_rejects_pairs_without_a_pair(sim_csv, tmp_path, capsys):
    pairs_out = tmp_path / "pairs.csv"
    code = run(["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3, "--out", tmp_path / "ci.csv",
                "--pairs", ",", "--pairs-out", pairs_out])
    assert code == 2
    assert capsys.readouterr().err == "error: --pairs ',' holds no pair\n"
    assert not pairs_out.exists()
    assert not (tmp_path / "ci.csv").exists()


@pytest.mark.parametrize("token", ["item_0", "item_0:", ":item_1", "item_0:item_1:item_2"])
def test_ci_names_a_malformed_pair_token(sim_csv, tmp_path, capsys, token):
    # Each was split at its first colon, so the message blamed a label
    # ('' or 'item_1:item_2') instead of the token.
    pairs_out = tmp_path / "pairs.csv"
    code = run(["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3, "--out", tmp_path / "ci.csv",
                "--pairs", f"item_1:item_2,{token}", "--pairs-out", pairs_out])
    assert code == 2
    assert capsys.readouterr().err == f"error: --pairs token {token!r} is not two labels A:B\n"
    assert not pairs_out.exists()
    assert not (tmp_path / "ci.csv").exists()


@pytest.mark.parametrize("token, message", [
    ("item_0:zz", "unknown item label 'zz'"),
    ("item_2:item_2", "--pairs token 'item_2:item_2' names one item twice"),
])
def test_ci_checks_its_pairs_before_writing(sim_csv, tmp_path, capsys, token, message):
    # Each wrote --out and then failed on the pair.
    pairs_out = tmp_path / "pairs.csv"
    code = run(["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3, "--out", tmp_path / "ci.csv",
                "--pairs", f"item_0:item_1,{token}", "--pairs-out", pairs_out])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not pairs_out.exists()
    assert not (tmp_path / "ci.csv").exists()


def test_ci_pairs_all_lists_every_ordered_pair(sim_csv, tmp_path):
    pairs_out = tmp_path / "pairs.csv"
    code = run(["ci", "--data", sim_csv, "--t", 0.5, "--h", 0.3, "--out", tmp_path / "ci.csv",
                "--pairs", "all", "--pairs-out", pairs_out])
    assert code == 0
    labels = krc.ingest_csv(str(sim_csv)).item_labels  # in index order
    expected = [[a, b] for a in labels for b in labels if a != b]
    assert [row[:2] for row in read_rows(pairs_out)[1:]] == expected


def test_console_script_help():
    """The declared ``krc`` console script runs and prints the usage.

    The ``[project.scripts]`` target runs the way an installer's wrapper runs
    it, in a fresh interpreter that imports the same ``krc`` package as this
    test, so the result does not depend on which ``krc`` is on PATH.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "krc" in scripts
    module, func = scripts["krc"].split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(krc.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    wrapper = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'krc'\nsys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    # "sweep ... on simulated data" alone satisfies the substring check above.
    assert re.search(r"\bsimulate\b", proc.stdout)
