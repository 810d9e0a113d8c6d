"""Record validation, CSV ingestion, time encodings, connectivity."""

import csv
import math
import os
import tempfile
import threading
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krc import data
from krc.data import (
    ComparisonDataset,
    ComparisonRecord,
    TimeEncoding,
    check_strong_connectivity,
    ingest_csv,
    season_of_time,
)
from krc.errors import DataFormatError, RosterError
from krc.kernels import BOXCAR, EPANECHNIKOV, GAUSSIAN
from krc.util import float_token


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


UNIT_CSV = """time,item_i,item_j,outcome
0.10,alpha,beta,1
0.20,beta,gamma,0
0.30,alpha,gamma,1
0.40,gamma,alpha,0
"""


# -- records ---------------------------------------------------------------


def test_record_validation():
    ComparisonRecord(0, 1, 0.5, 1)
    with pytest.raises(DataFormatError, match="self-comparison"):
        ComparisonRecord(2, 2, 0.5, 1)
    with pytest.raises(DataFormatError, match="ties unsupported"):
        ComparisonRecord(0, 1, 0.5, 2)
    with pytest.raises(DataFormatError, match="non-finite"):
        ComparisonRecord(0, 1, float("nan"), 1)


def test_record_canonical_flip():
    rec = ComparisonRecord(3, 1, 0.25, 1).canonical()
    assert (rec.item_i, rec.item_j, rec.outcome) == (1, 3, 0)
    rec = ComparisonRecord(1, 3, 0.25, 1).canonical()
    assert (rec.item_i, rec.item_j, rec.outcome) == (1, 3, 1)


# -- ingestion -------------------------------------------------------------


def test_ingest_unit_interval(tmp_path):
    ds = ingest_csv(write(tmp_path, "a.csv", UNIT_CSV))
    assert ds.n == 3
    assert ds.n_records == 4
    # labels indexed by first appearance
    assert ds.item_labels[0] == "alpha"
    assert ds.index_of("gamma") == 2
    # row 2 (beta, gamma, 0) is canonical already; row 4 flips to (0, 2, 1)
    times, outs = ds.pair_times_outcomes(0, 2)
    assert np.array_equal(times, [0.3, 0.4])
    assert np.array_equal(outs, [1, 1])
    # reversed query flips outcomes
    _, outs_rev = ds.pair_times_outcomes(2, 0)
    assert np.array_equal(outs_rev, [0, 0])


def test_ingest_bad_header(tmp_path):
    path = write(tmp_path, "a.csv", "when,i,j,win\n0.1,a,b,1\n")
    with pytest.raises(DataFormatError, match="unrecognized header"):
        ingest_csv(path)


def test_ingest_row_numbers_in_errors(tmp_path):
    path = write(
        tmp_path, "a.csv", "time,item_i,item_j,outcome\n0.1,a,b,1\n0.2,a,b\n"
    )
    with pytest.raises(DataFormatError, match="row 3"):
        ingest_csv(path)
    path = write(
        tmp_path, "b.csv", "time,item_i,item_j,outcome\nx,a,b,1\n"
    )
    with pytest.raises(DataFormatError, match="row 2: bad time"):
        ingest_csv(path)


def test_ingest_rejects_ties(tmp_path):
    path = write(tmp_path, "a.csv", "time,item_i,item_j,outcome\n0.1,a,b,0.5\n")
    with pytest.raises(DataFormatError, match="ties unsupported"):
        ingest_csv(path)


def test_ingest_rejects_self_comparison(tmp_path):
    path = write(tmp_path, "a.csv", "time,item_i,item_j,outcome\n0.1,a,a,1\n")
    with pytest.raises(DataFormatError, match="self-comparison"):
        ingest_csv(path)


def test_ingest_roster_strict(tmp_path):
    path = write(tmp_path, "a.csv", UNIT_CSV)
    ds = ingest_csv(path, roster=["alpha", "beta", "gamma", "delta"])
    assert ds.n == 4
    with pytest.raises(RosterError, match="'gamma' not in roster"):
        ingest_csv(path, roster=["alpha", "beta"])
    with pytest.raises(RosterError, match="duplicate"):
        ingest_csv(path, roster=["alpha", "alpha"])


def test_ingest_season_day_derived(tmp_path):
    text = (
        "season,day,item_i,item_j,outcome\n"
        "1,5,a,b,1\n"
        "1,9,a,b,0\n"
        "1,20,b,c,1\n"
        "2,3,a,c,1\n"
    )
    ds = ingest_csv(write(tmp_path, "a.csv", text))
    assert ds.encoding.scheme == "season-day"
    # season 1 has 3 distinct game days, season 2 has 1
    assert ds.encoding.season_day_counts == (3, 1)
    # calendar days 5, 9, 20 become ranks 1, 2, 3; time = l - 1 + k/(N+1)
    times, _ = ds.pair_times_outcomes(0, 1)
    assert times == pytest.approx([0.25, 0.5])
    t2, _ = ds.pair_times_outcomes(0, 2)
    assert t2 == pytest.approx([1.5])
    assert season_of_time(0.25) == 1
    assert season_of_time(1.5) == 2


def test_ingest_season_day_declared_counts(tmp_path):
    text = "season,day,item_i,item_j,outcome\n1,1,a,b,1\n1,4,a,b,0\n"
    enc = TimeEncoding("season-day", (4,))
    ds = ingest_csv(write(tmp_path, "a.csv", text), encoding=enc)
    times, _ = ds.pair_times_outcomes(0, 1)
    assert times == pytest.approx([0.2, 0.8])
    bad = TimeEncoding("season-day", (3,))
    with pytest.raises(DataFormatError, match="day 4 outside"):
        ingest_csv(write(tmp_path, "b.csv", text), encoding=bad)


def test_encoding_validation():
    enc = TimeEncoding("season-day", (3, 2))
    assert enc.encode(1, 1) == 0.25
    assert enc.encode(2, 2) == pytest.approx(1 + 2 / 3)
    with pytest.raises(ValueError):
        enc.encode(3, 1)
    with pytest.raises(ValueError):
        enc.encode(1, 4)
    with pytest.raises(ValueError):
        TimeEncoding("weekly")


def test_export_ingest_roundtrip(tmp_path):
    ds = ingest_csv(write(tmp_path, "a.csv", UNIT_CSV))
    out = str(tmp_path / "out.csv")
    ds.export_csv(out)
    back = ingest_csv(out)
    assert back.n == ds.n
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.outcomes, ds.outcomes)
    assert [back.item_labels[k] for k in range(back.n)] == [
        ds.item_labels[k] for k in range(ds.n)
    ]


def test_export_ingest_roundtrip_season(tmp_path):
    text = (
        "season,day,item_i,item_j,outcome\n"
        "1,5,a,b,1\n"
        "1,9,b,c,0\n"
        "2,1,a,c,1\n"
    )
    ds = ingest_csv(write(tmp_path, "a.csv", text))
    out = str(tmp_path / "out.csv")
    ds.export_csv(out)
    back = ingest_csv(out)
    assert np.array_equal(back.times, ds.times)
    assert back.encoding.season_day_counts == ds.encoding.season_day_counts


# -- dataset views ---------------------------------------------------------


def build_small():
    ii = np.array([0, 0, 1, 0])
    jj = np.array([1, 1, 2, 2])
    tt = np.array([0.4, 0.1, 0.5, 0.3])
    yy = np.array([1, 0, 1, 0])
    return ComparisonDataset(3, ii, jj, tt, yy)


def test_pair_views_sorted_by_time():
    ds = build_small()
    times, outs = ds.pair_times_outcomes(0, 1)
    assert np.array_equal(times, [0.1, 0.4])
    assert np.array_equal(outs, [0, 1])
    counts = {key: times.size for key, times, _ in ds.pairs()}
    assert counts == {(0, 1): 2, (0, 2): 1, (1, 2): 1}


def test_with_max_time_is_strict():
    ds = build_small()
    early = ds.with_max_time(0.4)
    assert early.n_records == 2
    assert float(early.times.max()) < 0.4
    assert early.n == ds.n


def test_in_time_order_is_stable():
    ii = np.array([0, 1, 0])
    jj = np.array([1, 2, 2])
    tt = np.array([0.5, 0.5, 0.5])
    yy = np.array([1, 0, 1])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    ot, oi, oj, oy = ds.in_time_order()
    # equal times keep canonical (i, j) order
    assert np.array_equal(oi, [0, 0, 1])
    assert np.array_equal(oj, [1, 2, 2])


def test_dataset_rejects_inconsistent_input():
    with pytest.raises(RosterError):
        ComparisonDataset(
            2, np.array([0]), np.array([2]), np.array([0.5]), np.array([1])
        )
    with pytest.raises(DataFormatError):
        ComparisonDataset(
            2, np.array([0]), np.array([1]), np.array([0.5]), np.array([3])
        )
    with pytest.raises(ValueError):
        ComparisonDataset(
            2, np.array([0, 0]), np.array([1]), np.array([0.5]), np.array([1])
        )


def test_presorted_flag_is_checked():
    ii, jj = np.array([0, 0, 1]), np.array([1, 2, 2])
    tt, yy = np.array([0.4, 0.1, 0.3]), np.array([1, 0, 1])
    ds = ComparisonDataset(3, ii, jj, tt, yy, _presorted=True)
    assert np.array_equal(ds.times, tt)
    # pair keys out of order
    with pytest.raises(ValueError, match="not sorted"):
        ComparisonDataset(3, ii[::-1], jj[::-1], tt[::-1], yy[::-1], _presorted=True)
    # times decreasing within a pair
    with pytest.raises(ValueError, match="not sorted"):
        ComparisonDataset(
            2, np.array([0, 0]), np.array([1, 1]), np.array([0.6, 0.2]),
            np.array([1, 0]), _presorted=True,
        )
    # the same columns without the flag are sorted, not rejected
    fixed = ComparisonDataset(3, ii[::-1], jj[::-1], tt[::-1], yy[::-1])
    assert np.array_equal(fixed.times, tt)


def _columns(ds):
    return (ds._ii, ds._jj, ds._tt, ds._yy, ds._season, ds._day)


def assert_same_dataset(a, b):
    assert a.n == b.n and a.item_labels == b.item_labels and a.encoding == b.encoding
    for x, y in zip(_columns(a), _columns(b)):
        assert (x is None and y is None) or np.array_equal(x, y)
    for x, y in zip(a.pair_segments(), b.pair_segments()):
        assert np.array_equal(x, y)


def test_presorted_columns_are_taken_as_given():
    from krc.simulate import SimConfig, generate, generate_season_dataset

    ii, jj = np.array([0, 0, 1]), np.array([1, 2, 2])
    tt, yy = np.array([0.1, 0.4, 0.3]), np.array([1, 0, 1])
    given = [c.copy() for c in (ii, jj, tt, yy)]
    ds = ComparisonDataset(3, ii, jj, tt, yy, _presorted=True)
    for col, kept in zip((ii, jj, tt, yy), _columns(ds)):
        assert np.shares_memory(col, kept)  # no copy
    assert_same_dataset(ds, ComparisonDataset(3, *given))
    # a non-canonical row is an error, and the caller's arrays stay unwritten
    flipped = [np.array([1, 0, 1]), np.array([0, 2, 2]), tt.copy(), yy.copy()]
    before = [c.copy() for c in flipped]
    with pytest.raises(ValueError, match="item_i > item_j"):
        ComparisonDataset(3, *flipped, _presorted=True)
    for col, old in zip(flipped, before):
        assert np.array_equal(col, old)
    # without the flag the columns are copied before they are canonicalized
    # and sorted, so the caller's arrays stay unwritten too
    ComparisonDataset(3, *flipped)
    for col, old in zip(flipped, before):
        assert np.array_equal(col, old)

    # The presorted callers build the dataset the copying path builds.
    sim, _ = generate(SimConfig(n=5, m=7, seed=3))
    season, _ = generate_season_dataset(4, 3, 3, 2, seed=1)
    for got in (sim, sim.with_max_time(0.5), season.with_max_time(1.5)):
        ii, jj, tt, yy, ss, dd = (
            None if c is None else c.copy() for c in _columns(got)
        )
        assert_same_dataset(got, ComparisonDataset(
            got.n, ii, jj, tt, yy, item_labels=got.item_labels,
            encoding=got.encoding, season=ss, day=dd,
        ))
    # deriving a dataset leaves its source as it was
    source = [c.copy() for c in _columns(sim)[:4]]
    sim.with_max_time(0.5)
    for col, old in zip(_columns(sim), source):
        assert np.array_equal(col, old)


def test_stored_columns_are_read_only():
    from krc.simulate import SimConfig, generate

    ii, jj = np.array([0, 0, 1]), np.array([1, 2, 2])
    tt, yy = np.array([0.1, 0.4, 0.3]), np.array([1, 0, 1])
    sim, _ = generate(SimConfig(n=4, m=3, seed=5))
    for ds in (ComparisonDataset(3, ii, jj, tt, yy, _presorted=True),
               ComparisonDataset(3, jj, ii, tt, yy), sim,
               sim.with_max_time(0.5)):
        for col in (ds.times, ds.outcomes, *ds.pair_segments()):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[0]
    # the caller's own arrays keep their flags
    assert all(c.flags.writeable for c in (ii, jj, tt, yy))


# -- connectivity ----------------------------------------------------------


def scc_partition_oracle(adj):
    """Mutual-reachability classes via Warshall closure."""
    n = adj.shape[0]
    reach = adj.copy()
    np.fill_diagonal(reach, True)
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    classes = {}
    for v in range(n):
        key = tuple(bool(reach[v, u] and reach[u, v]) for u in range(n))
        classes.setdefault(key, []).append(v)
    return frozenset(frozenset(c) for c in classes.values())


def win_graph_oracle(ds, t, h, kernel):
    adj = np.zeros((ds.n, ds.n), dtype=bool)
    for (i, j), times, outs in ds.pairs():
        w = kernel.weight(t, times, h)
        if float(w[outs == 1].sum()) > 0.0:
            adj[i, j] = True
        if float(w[outs == 0].sum()) > 0.0:
            adj[j, i] = True
    return adj


def test_connectivity_matches_warshall_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 25))
        ii = np.empty(m, dtype=int)
        jj = np.empty(m, dtype=int)
        for k in range(m):
            a, b = sorted(rng.choice(n, size=2, replace=False))
            ii[k], jj[k] = a, b
        tt = rng.uniform(0, 1, size=m)
        yy = rng.integers(0, 2, size=m)
        ds = ComparisonDataset(n, ii, jj, tt, yy)
        report = check_strong_connectivity(ds, 0.5, 0.2, BOXCAR)
        adj = win_graph_oracle(ds, 0.5, 0.2, BOXCAR)
        expected = scc_partition_oracle(adj)
        got = frozenset(frozenset(c) for c in report.components)
        assert got == expected
        assert report.strongly_connected == (len(expected) == 1)
        assert len(report.components) == len(expected)


def test_connectivity_cycle_is_strong():
    # a beats b, b beats c, c beats a
    ii = np.array([0, 1, 0])
    jj = np.array([1, 2, 2])
    tt = np.array([0.4, 0.5, 0.6])
    yy = np.array([1, 1, 0])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    assert check_strong_connectivity(ds, 0.5, 1.0, GAUSSIAN).strongly_connected
    assert check_strong_connectivity(ds, 0.5, 10.0, BOXCAR).strongly_connected


def test_connectivity_one_way_is_weak():
    # all wins point one direction
    ii = np.array([0, 1])
    jj = np.array([1, 2])
    tt = np.array([0.4, 0.6])
    yy = np.array([0, 0])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    report = check_strong_connectivity(ds, 0.5, 10.0, BOXCAR)
    assert not report.strongly_connected
    assert len(report.components) == 3


def test_connectivity_respects_kernel_support():
    # the only (0,1) win sits outside the boxcar window at t=0.9
    ii = np.array([0, 0, 1])
    jj = np.array([1, 1, 2])
    tt = np.array([0.1, 0.88, 0.9])
    yy = np.array([1, 0, 1])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    near = check_strong_connectivity(ds, 0.9, 0.05, BOXCAR)
    assert not near.strongly_connected
    wide = check_strong_connectivity(ds, 0.9, 2.0, BOXCAR)
    assert wide.edge_count > near.edge_count


def test_connectivity_without_records():
    empty = np.array([], dtype=int)
    ds = ComparisonDataset(3, empty, empty, np.array([]), empty)
    report = check_strong_connectivity(ds, 0.5, 0.2, GAUSSIAN)
    assert not report.strongly_connected
    assert report.components == ((0,), (1,), (2,)) and report.edge_count == 0
    # the bandwidth is checked even when no record is weighed
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        check_strong_connectivity(ds, 0.5, 0.0, GAUSSIAN)


# -- columnar ingest against the row-by-row reference ------------------------

_UNIT_HEADER = ("time", "item_i", "item_j", "outcome")
_SEASON_HEADER = ("season", "day", "item_i", "item_j", "outcome")


def _parse_outcome(token: str, row_no: int) -> int:
    text = token.strip()
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"row {row_no}: bad outcome {token!r}") from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise DataFormatError(
        f"row {row_no}: outcome must be 0 or 1, got {token!r} (ties unsupported)"
    )


def _parse_label(token: str, row_no: int, col: str) -> str:
    text = token.strip()
    if not text:
        raise DataFormatError(f"row {row_no}: empty {col} label")
    return text


def reference_ingest_csv(
    path: str,
    *,
    encoding: TimeEncoding | None = None,
    roster: Sequence[str] | None = None,
) -> ComparisonDataset:
    """The row-by-row ingest that preceded the columnar read, kept verbatim."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = tuple(c.strip().lower() for c in rows[0])
    if header == _UNIT_HEADER:
        scheme = "unit-interval"
    elif header == _SEASON_HEADER:
        scheme = "season-day"
    else:
        raise DataFormatError(
            f"{path}: unrecognized header {rows[0]!r}; expected "
            f"{','.join(_UNIT_HEADER)} or {','.join(_SEASON_HEADER)}"
        )
    if encoding is not None and encoding.scheme != scheme:
        raise DataFormatError(
            f"{path}: header implies {scheme!r} but encoding requests "
            f"{encoding.scheme!r}"
        )
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")

    labels: dict[str, int] = {}
    strict = roster is not None
    if strict:
        for lab in roster:
            if lab in labels:
                raise RosterError(f"duplicate roster label {lab!r}")
            labels[lab] = len(labels)

    def item_index(token: str, row_no: int, col: str) -> int:
        lab = _parse_label(token, row_no, col)
        if lab not in labels:
            if strict:
                raise RosterError(f"row {row_no}: label {lab!r} not in roster")
            labels[lab] = len(labels)
        return labels[lab]

    ii: list[int] = []
    jj: list[int] = []
    yy: list[int] = []

    if scheme == "unit-interval":
        tt: list[float] = []
        for offset, row in enumerate(body):
            row_no = offset + 2
            if len(row) != 4:
                raise DataFormatError(
                    f"row {row_no}: expected 4 fields, got {len(row)}"
                )
            try:
                t = float(row[0])
            except ValueError:
                raise DataFormatError(f"row {row_no}: bad time {row[0]!r}") from None
            if not math.isfinite(t):
                raise DataFormatError(f"row {row_no}: non-finite time {row[0]!r}")
            a = item_index(row[1], row_no, "item_i")
            b = item_index(row[2], row_no, "item_j")
            if a == b:
                raise DataFormatError(f"row {row_no}: self-comparison {row[1]!r}")
            ii.append(a)
            jj.append(b)
            tt.append(t)
            yy.append(_parse_outcome(row[3], row_no))
        n = len(labels)
        if n < 2:
            raise DataFormatError(f"{path}: fewer than two items")
        return ComparisonDataset(
            n, np.array(ii), np.array(jj), np.array(tt), np.array(yy),
            item_labels=[lab for lab, _ in sorted(labels.items(), key=lambda kv: kv[1])],
            encoding=TimeEncoding("unit-interval"),
        )

    # season-day
    seasons: list[int] = []
    days: list[int] = []
    for offset, row in enumerate(body):
        row_no = offset + 2
        if len(row) != 5:
            raise DataFormatError(f"row {row_no}: expected 5 fields, got {len(row)}")
        try:
            season = int(row[0])
            day = int(row[1])
        except ValueError:
            raise DataFormatError(
                f"row {row_no}: bad season/day {row[0]!r},{row[1]!r}"
            ) from None
        if season < 1:
            raise DataFormatError(f"row {row_no}: season must be >= 1, got {season}")
        a = item_index(row[2], row_no, "item_i")
        b = item_index(row[3], row_no, "item_j")
        if a == b:
            raise DataFormatError(f"row {row_no}: self-comparison {row[2]!r}")
        seasons.append(season)
        days.append(day)
        ii.append(a)
        jj.append(b)
        yy.append(_parse_outcome(row[4], row_no))
    n = len(labels)
    if n < 2:
        raise DataFormatError(f"{path}: fewer than two items")

    declared = encoding.season_day_counts if encoding is not None else None
    max_season = max(seasons)
    if declared is not None:
        counts = tuple(declared)
        if max_season > len(counts):
            raise DataFormatError(
                f"season {max_season} exceeds declared count list ({len(counts)})"
            )
        ranks = days
        for row_offset, (l, k) in enumerate(zip(seasons, days)):
            if not 1 <= k <= counts[l - 1]:
                raise DataFormatError(
                    f"row {row_offset + 2}: day {k} outside 1..{counts[l - 1]} "
                    f"for season {l}"
                )
    else:
        by_season: dict[int, set[int]] = {}
        for l, d in zip(seasons, days):
            by_season.setdefault(l, set()).add(d)
        rank_map = {
            l: {d: r + 1 for r, d in enumerate(sorted(ds_))}
            for l, ds_ in by_season.items()
        }
        counts = tuple(
            len(by_season.get(l, ())) for l in range(1, max_season + 1)
        )
        ranks = [rank_map[l][d] for l, d in zip(seasons, days)]

    enc = TimeEncoding("season-day", counts)
    tt = np.array([enc.encode(l, k) for l, k in zip(seasons, ranks)])
    return ComparisonDataset(
        n, np.array(ii), np.array(jj), tt, np.array(yy),
        item_labels=[lab for lab, _ in sorted(labels.items(), key=lambda kv: kv[1])],
        encoding=enc,
        season=np.array(seasons),
        day=np.array(ranks),
    )


def dataset_state(ds):
    """Everything a dataset holds; arrays as (dtype, shape, bytes)."""

    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    counts = ds.encoding.season_day_counts
    columns = (ds._ii, ds._jj, ds._tt, ds._yy, ds._season, ds._day, *ds.pair_segments())
    return (
        ds.n, ds.item_labels, ds.encoding,
        None if counts is None else tuple(type(c) for c in counts),
        *(raw(a) for a in columns),
    )


def ingest_result(ingest, path, **kwargs):
    try:
        return "dataset", dataset_state(ingest(path, **kwargs))
    except Exception as exc:  # the type and message are compared
        return "error", type(exc), str(exc)


def assert_same_as_reference(path, **kwargs):
    want = ingest_result(reference_ingest_csv, path, **kwargs)
    assert ingest_result(ingest_csv, path, **kwargs) == want
    return want


def write_exact(path, text):
    with open(path, "w", newline="") as fh:  # keeps \r\n as written
        fh.write(text)
    return str(path)


@pytest.fixture
def row_scans(monkeypatch):
    """Records each fallback to the csv.reader pass."""
    calls = []
    read_rows = data._read_rows

    def spy(path, *args):
        calls.append(path)
        return read_rows(path, *args)

    monkeypatch.setattr(data, "_read_rows", spy)
    return calls


def test_columnar_read_covers_the_dialect(tmp_path, row_scans):
    text = (
        "\r\nTime, item_i ,ITEM_J,outcome\r\n"
        '0.5,"a,b", c ,1\r\n'
        "\r\n"
        '1e-3,#x,"say ""hi""",0e0\r\n'
        '-2.5E1,c,"#x",1.0\r\n'
        '"7","a,b","multi\nline", 1 \r\n'
        '8,c,mid"quote,-0'
    )
    path = write_exact(tmp_path / "a.csv", text)
    assert assert_same_as_reference(path)[0] == "dataset"
    assert row_scans == []
    ds = ingest_csv(path)
    assert ds.item_labels == ("a,b", "c", "#x", 'say "hi"', "multi\nline", 'mid"quote')
    assert ds.n_records == 5
    season = "season,day,item_i,item_j,outcome\n2,+7, a ,b,1\n1,003,b,a,0\n2,1_0,a,b,1\n"
    path = write_exact(tmp_path / "s.csv", season)
    assert assert_same_as_reference(path)[0] == "dataset"
    ds = ingest_csv(path)
    assert row_scans == []
    assert ds.encoding.season_day_counts == (1, 2)
    assert sorted(ds._day.tolist()) == [1, 1, 2]


@pytest.mark.parametrize("line", ["   ", ",,,", " , ,\t", '""', "\t"])
def test_lines_only_csv_reader_skips_go_to_the_row_scanner(tmp_path, row_scans, line):
    text = f"time,item_i,item_j,outcome\n0.1,a,b,1\n{line}\n0.2,b,c,0\n"
    path = write_exact(tmp_path / "a.csv", text)
    assert assert_same_as_reference(path)[0] == "dataset"
    assert len(row_scans) == 1


@pytest.mark.parametrize("text, message", [
    ("time,item_i,item_j,outcome\n0.1_0,a,b,1\n", None),
    ("time,item_i,item_j,outcome\n0.1\x1c,a,b,1\n", "row 2: bad time '0.1\\x1c'"),
    ("time,item_i,item_j,outcome\n0.1,a\x1f,b,1\n", None),
    ("time,item_i,item_j,outcome\n", "no data rows"),
    ("time,item_i,item_j,outcome\n\n\n", "no data rows"),
    ("", "empty file"),
    ("when,i,j,win\n0.1,a,b,1\n", "unrecognized header"),
])
def test_row_scanner_decides_what_loadtxt_cannot(tmp_path, row_scans, text, message):
    path = write_exact(tmp_path / "a.csv", text)
    result = assert_same_as_reference(path)
    assert len(row_scans) == 1
    if message is None:
        assert result[0] == "dataset"
    else:
        assert result[0] == "error" and message in result[2]


def test_long_field_is_rejected_as_csv_reader_does(tmp_path):
    saved = csv.field_size_limit(1000)
    try:
        for text in (
            f"time,item_i,item_j,outcome\n0.1,{'x' * 1001},b,1\n",
            # each line is short; the quoted label spanning them is not
            f"time,item_i,item_j,outcome\n0.1,\"{'y' * 400}\n{'y' * 400}\n{'y' * 201}\",b,1\n",
            f"time,item_i,item_j,outcome\n{'0' * 1000}.1,a,b,1\n",
        ):
            result = assert_same_as_reference(write_exact(tmp_path / "a.csv", text))
            assert result[0] == "error" and "field larger than field limit" in result[2]
    finally:
        csv.field_size_limit(saved)


def test_ingest_reads_a_pipe_once(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(UNIT_CSV)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        ds = ingest_csv(str(fifo))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert ds.n_records == 4 and ds.item_labels == ("alpha", "beta", "gamma")


# Each label is written in several ways that all read back as that label.
LABEL_TOKENS = {
    "alpha": ["alpha", " alpha ", '"alpha"', '" alpha"'],
    "be,ta": ['"be,ta"', '"be,ta" '],
    'ga"mma': ['"ga""mma"', 'ga"mma'],
    "#delta": ["#delta", '"#delta"', "\t#delta"],
    "epsilon": ['"eps"ilon', "epsilon "],
    "ze\nta": ['"ze\nta"'],
}
BAD_LABELS = ["", "  ", '""']


def mostly(good, bad, one_in=40):
    """``good``, or ``bad`` about once in ``one_in`` draws."""
    return st.integers(1, one_in).flatmap(lambda k: bad if k == one_in else good)


def number_token(x):
    """Ways of writing the float x that float() reads back as x."""
    text = repr(x)
    digits = [k for k in range(1, len(text)) if text[k - 1].isdigit() and text[k].isdigit()]
    forms = [text, f"{x:.17e}", f"{x:.17E}", f" {text} ", f'"{text}"']
    if digits:
        forms.append(text[: digits[0]] + "_" + text[digits[0]:])
    return st.sampled_from(forms)


# The bad tokens of each column, one for each way a field can be bad.
BAD_TOKENS = {
    "time": ["nan", "-inf", "1e400", "x", "", "1__0", "0.1\x1c"],
    "outcome": ["2", "0.5", "", "x", "nan", "1_0"],
    "season": ["0", "-1", "1.0", "x", ""],
    "day": ["0", "-3", "2.5", "x", ""],
}
TIME = mostly(
    st.floats(-1e6, 1e6, allow_nan=False).flatmap(number_token),
    st.sampled_from(BAD_TOKENS["time"]),
)
OUTCOME = mostly(
    st.sampled_from(["0", "1", "1.0", "0e0", " 1", "1 ", "-0", '"1"', "0_0", "1.000"]),
    st.sampled_from(BAD_TOKENS["outcome"]),
)
SEASON = mostly(
    st.integers(1, 3).flatmap(lambda k: st.sampled_from([str(k), f" {k}", f"+{k}", f"0{k}"])),
    st.sampled_from(BAD_TOKENS["season"]),
)
DAY = mostly(
    st.integers(1, 12).flatmap(lambda k: st.sampled_from([str(k), f"{k} ", f"+{k}", f"1_{k}"])),
    st.sampled_from(BAD_TOKENS["day"]),
)
FILLER = st.sampled_from(["", "", "", "   ", ",,,", " , ,", "\t", ",,,,", '""'])


@st.composite
def label_pair(draw):
    names = sorted(LABEL_TOKENS)
    a = draw(st.sampled_from(names))
    b = draw(mostly(st.sampled_from([n for n in names if n != a]), st.just(a)))
    tokens = [draw(mostly(st.sampled_from(LABEL_TOKENS[n]), st.sampled_from(BAD_LABELS)))
              for n in (a, b)]
    return [a, b], tokens


@st.composite
def csv_case(draw):
    scheme = draw(st.sampled_from(["unit-interval", "season-day"]))
    header = list(_UNIT_HEADER if scheme == "unit-interval" else _SEASON_HEADER)
    if draw(st.booleans()):
        header = [c.upper() if k % 2 else f" {c}" for k, c in enumerate(header)]
    lines = [",".join(header)]
    seen = []
    for _ in range(draw(st.integers(1, 6))):
        names, (tok_i, tok_j) = draw(label_pair())
        seen += names
        lead = [draw(TIME)] if scheme == "unit-interval" else [draw(SEASON), draw(DAY)]
        fields = lead + [tok_i, tok_j, draw(OUTCOME)]
        fields = draw(mostly(st.just(fields), st.sampled_from([fields[:-1], fields + ["1"]]), 25))
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(FILLER))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    kwargs = {}
    roster = draw(mostly(st.sampled_from([None, "exact", "extra"]),
                         st.sampled_from(["missing", "duplicate"]), 6))
    labels = list(dict.fromkeys(seen))
    if roster == "exact":
        kwargs["roster"] = labels[::-1]
    elif roster == "extra":
        kwargs["roster"] = ["spare"] + labels
    elif roster == "missing" and len(labels) > 2:
        kwargs["roster"] = labels[1:]
    elif roster == "duplicate":
        kwargs["roster"] = labels + labels[:1]
    if scheme == "season-day":
        counts = tuple(draw(st.lists(st.integers(8, 30), min_size=2, max_size=4)))
        encodings = [None, TimeEncoding("season-day", counts), TimeEncoding("season-day")]
    else:
        encodings = [None, TimeEncoding()]
    encoding = draw(mostly(st.sampled_from(encodings), st.sampled_from(
        [TimeEncoding("unit-interval"), TimeEncoding("season-day")]
    ), 20))
    if encoding is not None:
        kwargs["encoding"] = encoding
    return text, kwargs


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(csv_case())
def test_ingest_matches_row_reference(case):
    text, kwargs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_exact(os.path.join(tmp, "case.csv"), text)
        assert_same_as_reference(path, **kwargs)
        # Whenever the columnar read gives a dataset on its own, it is the
        # reference's dataset (not only after a fallback).
        with open(path, newline="") as fh:
            read = data._read_body(fh, kwargs.get("encoding"))
        if read is not None:
            direct = data._dataset(*read, kwargs.get("encoding"), kwargs.get("roster"))
            if direct is not None:
                want = reference_ingest_csv(path, **kwargs)
                assert dataset_state(direct) == dataset_state(want)


# Each file holds exactly one bad field, so the check of that field's kind
# is the only one that can reject it.
GOOD_ROWS = {
    _UNIT_HEADER: [["0.1", "a", "b", "1"], ["0.2", "b", "c", "0"], ["0.3", "c", "a", "1"]],
    _SEASON_HEADER: [["1", "1", "a", "b", "1"], ["1", "2", "b", "c", "0"],
                     ["2", "1", "c", "a", "1"]],
}
ONE_BAD_FIELD = [
    pytest.param(header, column, token, id=f"{header[0]}-{column}-{token!r}")
    for header in GOOD_ROWS
    for column in header
    for token in BAD_TOKENS.get(column, BAD_LABELS + ["too long"])
]


@pytest.mark.parametrize("header, column, token", ONE_BAD_FIELD)
def test_ingest_of_one_bad_field_matches_row_reference(tmp_path, header, column, token):
    if token == "too long":  # past the csv field limit, in lines within it
        token = '"' + "\n".join(["z" * (csv.field_size_limit() // 4 + 1)] * 4) + '"'
    rows = [list(row) for row in GOOD_ROWS[header]]
    rows[1][header.index(column)] = token
    text = "".join(",".join(row) + "\n" for row in [header] + rows)
    path = write_exact(tmp_path / "one.csv", text)
    result = assert_same_as_reference(path)
    # a day is only ranked among its season's days, so one below 1 reads
    assert result[0] == ("dataset" if column == "day" and token in ("0", "-3") else "error")
    if header == _SEASON_HEADER:  # declared counts put every bad day out of range
        declared = TimeEncoding("season-day", (2, 1))
        assert assert_same_as_reference(path, encoding=declared)[0] == "error"


# -- exact row numbers deep in a large file ----------------------------------

DEEP_ROWS = 50_000
DEEP_BAD = 43_210  # data row index of the bad row
DEEP_ROSTER = [f"team{k}" for k in range(12)]


def deep_lines(scheme):
    rng = np.random.default_rng(5)
    a = rng.integers(0, 12, DEEP_ROWS)
    b = (a + rng.integers(1, 12, DEEP_ROWS)) % 12
    y = rng.integers(0, 2, DEEP_ROWS)
    if scheme == "unit-interval":
        lead = [repr(t) for t in np.sort(rng.uniform(0, 1, DEEP_ROWS)).tolist()]
    else:
        season = rng.integers(1, 4, DEEP_ROWS)
        day = rng.integers(1, 81, DEEP_ROWS)
        lead = [f"{s},{d}" for s, d in zip(season.tolist(), day.tolist())]
    return [f"{lead[k]},team{a[k]},team{b[k]},{y[k]}" for k in range(DEEP_ROWS)]


DEEP_CASES = [
    # (scheme, bad row, kwargs, exception, message after "row N: ")
    ("unit-interval", "0.5,team1,team2", {}, DataFormatError, "expected 4 fields, got 3"),
    ("unit-interval", "x,team1,team2,1", {}, DataFormatError, "bad time 'x'"),
    ("unit-interval", "inf,team1,team2,1", {}, DataFormatError, "non-finite time 'inf'"),
    ("unit-interval", "0.5, ,team2,1", {}, DataFormatError, "empty item_i label"),
    ("unit-interval", "0.5,team1,,1", {}, DataFormatError, "empty item_j label"),
    ("unit-interval", "0.5,team3, team3,1", {}, DataFormatError, "self-comparison 'team3'"),
    ("unit-interval", "0.5,team1,team2,x", {}, DataFormatError, "bad outcome 'x'"),
    ("unit-interval", "0.5,team1,team2,0.5", {}, DataFormatError,
     "outcome must be 0 or 1, got '0.5' (ties unsupported)"),
    ("unit-interval", "0.5,team1,rookie,1", {"roster": DEEP_ROSTER}, RosterError,
     "label 'rookie' not in roster"),
    ("season-day", "1,x,team1,team2,1", {}, DataFormatError, "bad season/day '1','x'"),
    ("season-day", "0,5,team1,team2,1", {}, DataFormatError, "season must be >= 1, got 0"),
    ("season-day", "2,81,team1,team2,1", {"encoding": TimeEncoding("season-day", (80,) * 3)},
     DataFormatError, "day 81 outside 1..80 for season 2"),
    ("season-day", "2,5,team1,team2,nan", {}, DataFormatError,
     "outcome must be 0 or 1, got 'nan' (ties unsupported)"),
    ("season-day", "2,5,team3, team3,1", {}, DataFormatError, "self-comparison 'team3'"),
]
# A line holding only \x1f sends a file to the csv.reader pass; both readers
# skip it as blank, so it shifts no row number either.
READERS = {"loadtxt": "", "csv.reader": "\x1f"}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("scheme, bad, kwargs, error, message", DEEP_CASES)
def test_error_row_number_is_exact_deep_in_a_file(
    tmp_path, scheme, bad, kwargs, error, message, reader
):
    lines = deep_lines(scheme)
    lines[DEEP_BAD] = bad
    # Blank lines are not rows: three before the bad row shift no row number.
    for at in (10, 20_000, DEEP_BAD - 1):
        lines.insert(at, "")
    lines.insert(30_000, READERS[reader])
    header = ",".join(_UNIT_HEADER if scheme == "unit-interval" else _SEASON_HEADER)
    path = write_exact(tmp_path / "deep.csv", "\n".join([header] + lines) + "\n")
    with pytest.raises(error) as caught:
        ingest_csv(path, **kwargs)
    assert str(caught.value) == f"row {DEEP_BAD + 2}: {message}"
    assert ingest_result(reference_ingest_csv, path, **kwargs) == (
        "error", error, str(caught.value)
    )


SEASONS_OF_80 = {"encoding": TimeEncoding("season-day", (80,) * 3)}
# (scheme, {data row index: line}, kwargs, exception, message)
DEEP_ORDER_CASES = [
    # The first row of the wrong width ends the read: a bad row before it
    # is reported, one after it is never reached.
    ("unit-interval", {DEEP_BAD: "x,team1,team2,1", DEEP_BAD + 7: "0.5,team1"}, {},
     DataFormatError, f"row {DEEP_BAD + 2}: bad time 'x'"),
    ("unit-interval", {DEEP_BAD: "0.5,team1", DEEP_BAD + 7: "x,team1,team2,1"}, {},
     DataFormatError, f"row {DEEP_BAD + 2}: expected 4 fields, got 2"),
    # Declared seasons and days are checked after every row.
    ("season-day", {DEEP_BAD: "2,81,team1,team2,1", DEEP_BAD + 7: "2,5,team1"},
     SEASONS_OF_80, DataFormatError, f"row {DEEP_BAD + 9}: expected 5 fields, got 3"),
    ("season-day", {DEEP_BAD - 9: "4,5,team1,team2,1", DEEP_BAD: "2,5,team1,team2,x"},
     SEASONS_OF_80, DataFormatError, f"row {DEEP_BAD + 2}: bad outcome 'x'"),
    ("season-day", {DEEP_BAD - 9: "4,5,team1,team2,1", DEEP_BAD: "2,81,team1,team2,1"},
     SEASONS_OF_80, DataFormatError, "season 4 exceeds declared count list (3)"),
    # The roster is checked before any row.
    ("unit-interval", {DEEP_BAD: "x,team1,team2,1"}, {"roster": DEEP_ROSTER + ["team3"]},
     RosterError, "duplicate roster label 'team3'"),
    # Within a row, the first check that fails is reported.
    ("unit-interval", {DEEP_BAD: "inf, ,team2,x"}, {},
     DataFormatError, f"row {DEEP_BAD + 2}: non-finite time 'inf'"),
    ("unit-interval", {DEEP_BAD: "0.5,team1,rookie,2"}, {"roster": DEEP_ROSTER},
     RosterError, f"row {DEEP_BAD + 2}: label 'rookie' not in roster"),
    ("season-day", {DEEP_BAD: "0,x,team1,team1,2"}, {},
     DataFormatError, f"row {DEEP_BAD + 2}: bad season/day '0','x'"),
    ("season-day", {DEEP_BAD: "0,5,team1,,2"}, {},
     DataFormatError, f"row {DEEP_BAD + 2}: season must be >= 1, got 0"),
]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("scheme, changed, kwargs, error, message", DEEP_ORDER_CASES)
def test_first_error_deep_in_a_file(tmp_path, scheme, changed, kwargs, error, message, reader):
    lines = deep_lines(scheme)
    for at, line in changed.items():
        lines[at] = line
    for at in (10, 20_000, DEEP_BAD - 1):
        lines.insert(at, "")
    lines.insert(30_000, READERS[reader])
    header = ",".join(_UNIT_HEADER if scheme == "unit-interval" else _SEASON_HEADER)
    path = write_exact(tmp_path / "deep.csv", "\n".join([header] + lines) + "\n")
    with pytest.raises(error) as caught:
        ingest_csv(path, **kwargs)
    assert str(caught.value) == message
    assert ingest_result(reference_ingest_csv, path, **kwargs) == ("error", error, message)


@pytest.mark.parametrize("scheme", ["unit-interval", "season-day"])
def test_deep_file_without_errors_matches_reference(tmp_path, row_scans, scheme):
    header = ",".join(_UNIT_HEADER if scheme == "unit-interval" else _SEASON_HEADER)
    path = write_exact(tmp_path / "deep.csv", "\n".join([header] + deep_lines(scheme)))
    assert assert_same_as_reference(path)[0] == "dataset"
    assert row_scans == []


@pytest.mark.parametrize("counts", [
    (np.int64(5), 9.0), (5.5, 6.5), (2**53, 7), (True, 7), (5, 6),
], ids=repr)
def test_declared_counts_of_any_type_encode_as_encode_does(tmp_path, counts):
    text = "season,day,item_i,item_j,outcome\n1,2,a,b,1\n1,1,b,a,0\n2,7,a,c,1\n"
    path = write_exact(tmp_path / "a.csv", text)
    assert_same_as_reference(path, encoding=TimeEncoding("season-day", counts))


@pytest.mark.parametrize("outcome", ["1\x1c", "\x1f0"])
def test_outcome_is_stripped_of_separators(tmp_path, outcome):
    # float() rejects these separators; the outcome is stripped of them first
    path = write_exact(tmp_path / "a.csv", f"time,item_i,item_j,outcome\n0.1,a,b,{outcome}\n")
    assert assert_same_as_reference(path)[0] == "dataset"


@pytest.mark.parametrize("row", [
    "1.0,1,b,a,0", "1,2.5,b,a,0", f"1,{2**63},b,a,0", f"{2**63},1,b,a,0",
])
def test_season_and_day_parse_as_int64(tmp_path, row):
    # Both readers hand over int() of each token as int64; the row reference
    # took any int, so a value beyond int64 is the one difference.
    head = "season,day,item_i,item_j,outcome\n1,1,a,b,1\n"
    path = write_exact(tmp_path / "a.csv", head + f"1,{2**63 - 1},b,a,0\n")
    assert assert_same_as_reference(path)[0] == "dataset"
    path = write_exact(tmp_path / "a.csv", head + row + "\n")
    season, day = row.split(",")[:2]
    with pytest.raises(DataFormatError) as caught:
        ingest_csv(path)
    assert str(caught.value) == f"row 3: bad season/day {season!r},{day!r}"


# -- export ------------------------------------------------------------------


def reference_export_csv(ds, path):
    """The row-by-row writer that preceded the column writer, kept verbatim."""
    order = np.lexsort((ds._jj, ds._ii, ds._tt))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if ds.encoding.scheme == "season-day":
            if ds._season is None or ds._day is None:
                raise ValueError("season-day dataset lacks season/day columns")
            writer.writerow(_SEASON_HEADER)
            for k in order:
                writer.writerow(
                    (int(ds._season[k]), int(ds._day[k]),
                     ds.item_labels[ds._ii[k]], ds.item_labels[ds._jj[k]],
                     int(ds._yy[k]))
                )
        else:
            writer.writerow(_UNIT_HEADER)
            for k in order:
                writer.writerow(
                    (float_token(ds._tt[k]),
                     ds.item_labels[ds._ii[k]], ds.item_labels[ds._jj[k]],
                     int(ds._yy[k]))
                )


QUOTING_LABELS = ("plain", "with,comma", 'say "hi"', " padded ", "two\nlines", "#hash", "cr\rlf")


def random_columns(rng, n, m):
    ii = rng.integers(0, n, m)
    jj = (ii + rng.integers(1, n, m)) % n
    return ii, jj, rng.integers(0, 2, m)


def test_export_matches_row_writer_unit(tmp_path):
    rng = np.random.default_rng(3)
    ii, jj, yy = random_columns(rng, 7, 300)
    tt = np.concatenate([rng.normal(0, 1e3, 290), [0.0, -0.0, 1e-310, 5e-324, 0.1, 1 / 3,
                                                    1e300, -2.5, 0.5, 0.5]])
    ds = ComparisonDataset(7, ii, jj, tt, yy, item_labels=QUOTING_LABELS)
    ds.export_csv(tmp_path / "new.csv")
    reference_export_csv(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_export_matches_row_writer_season_day(tmp_path):
    rng = np.random.default_rng(4)
    ii, jj, yy = random_columns(rng, 7, 300)
    season = rng.integers(1, 4, 300)
    day = rng.integers(1, 11, 300)
    enc = TimeEncoding("season-day", (10, 10, 10))
    tt = [enc.encode(s, d) for s, d in zip(season.tolist(), day.tolist())]
    ds = ComparisonDataset(7, ii, jj, tt, yy, item_labels=QUOTING_LABELS,
                           encoding=enc, season=season, day=day)
    ds.export_csv(tmp_path / "new.csv")
    reference_export_csv(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = ingest_csv(str(tmp_path / "new.csv"), encoding=enc)
    assert np.array_equal(np.sort(back.times), np.sort(ds.times))
    # a season-day dataset without its columns fails as before, after opening
    bare = ComparisonDataset(7, ii, jj, tt, yy, encoding=enc)
    for export in (bare.export_csv, lambda p: reference_export_csv(bare, p)):
        with pytest.raises(ValueError, match="lacks season/day"):
            export(tmp_path / "bare.csv")
        assert (tmp_path / "bare.csv").read_bytes() == b""


# -- connectivity against the per-pair loop ----------------------------------


def pooled_win_graph_oracle(ds):
    adj = np.zeros((ds.n, ds.n), dtype=bool)
    for (i, j), _, outs in ds.pairs():
        if np.any(outs == 1):
            adj[i, j] = True
        if np.any(outs == 0):
            adj[j, i] = True
    return adj


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV, BOXCAR], ids=lambda k: k.family)
@pytest.mark.parametrize("h", [0.001, 0.02, 0.3])
def test_connectivity_matches_per_pair_loop(kernel, h):
    rng = np.random.default_rng(17)
    weights = []
    for trial in range(40):
        n, m = int(rng.integers(2, 9)), int(rng.integers(0, 60))
        ii, jj, yy = random_columns(rng, n, m)
        ds = ComparisonDataset(n, ii, jj, rng.uniform(0, 1, m), yy)
        t = float(rng.uniform(-0.05, 1.05))
        want = data._component_report(win_graph_oracle(ds, t, h, kernel))
        assert check_strong_connectivity(ds, t, h, kernel) == want
        pooled = data._component_report(pooled_win_graph_oracle(ds))
        assert check_strong_connectivity(ds, 0.5, 10.0, BOXCAR) == pooled
        weights.append(kernel.weight(t, ds.times, h))
    if h < 0.01:  # narrow: most weights are exactly 0
        assert np.mean(np.concatenate(weights) == 0.0) > 0.8


def test_pair_key_sort_matches_three_key_lexsort():
    # repeated pairs, swapped orientation and tied times
    rng = np.random.default_rng(4)
    n, size = 6, 400
    ii = rng.integers(0, n, size)
    jj = (ii + rng.integers(1, n, size)) % n
    tt = rng.integers(0, 5, size) / 4.0
    yy = rng.integers(0, 2, size)
    row = np.arange(size)
    ds = ComparisonDataset(n, ii, jj, tt, yy, season=row, day=row)
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    y_canon = np.where(ii > jj, 1 - yy, yy)
    order = np.lexsort((tt, hi, lo))
    assert np.array_equal(ds._day, order)
    assert np.array_equal(ds._season, order)
    assert np.array_equal(ds._ii, lo[order])
    assert np.array_equal(ds._jj, hi[order])
    assert np.array_equal(ds._tt, tt[order])
    assert np.array_equal(ds._yy, y_canon[order])


@pytest.mark.parametrize("bad", [2, -1])
def test_bad_outcome_message_unchanged(bad):
    with pytest.raises(
        DataFormatError, match=r"^outcomes must be 0 or 1 \(ties unsupported\)$"
    ):
        ComparisonDataset(3, [0, 1], [1, 2], [0.1, 0.2], [1, bad])
