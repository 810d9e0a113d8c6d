"""Record validation, CSV ingestion, time encodings, connectivity."""

import numpy as np
import pytest

from krc.data import (
    ComparisonDataset,
    ComparisonRecord,
    TimeEncoding,
    aggregate_connectivity,
    check_strong_connectivity,
    ingest_csv,
    season_of_time,
)
from krc.errors import DataFormatError, RosterError
from krc.kernels import BOXCAR, GAUSSIAN


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
    assert ds.label_of(0) == "alpha"
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
    assert [back.label_of(k) for k in range(back.n)] == [
        ds.label_of(k) for k in range(ds.n)
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
    assert ds.pair_counts() == {(0, 1): 2, (0, 2): 1, (1, 2): 1}
    assert ds.min_pair_count() == 1
    assert ds.time_span() == (0.1, 0.5)


def test_min_pair_count_zero_when_pair_missing():
    ds = ComparisonDataset(
        3, np.array([0]), np.array([1]), np.array([0.5]), np.array([1])
    )
    assert ds.min_pair_count() == 0


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


def test_records_roundtrip():
    ds = build_small()
    recs = ds.records()
    assert len(recs) == 4
    assert all(r.item_i < r.item_j for r in recs)


def test_normalized_to_unit():
    ii = np.array([0, 0])
    jj = np.array([1, 1])
    tt = np.array([10.0, 30.0])
    yy = np.array([1, 0])
    ds = ComparisonDataset(2, ii, jj, tt, yy).normalized_to_unit()
    assert np.array_equal(ds.times, [0.0, 1.0])


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
        assert report.n_components == len(expected)


def test_connectivity_cycle_is_strong():
    # a beats b, b beats c, c beats a
    ii = np.array([0, 1, 0])
    jj = np.array([1, 2, 2])
    tt = np.array([0.4, 0.5, 0.6])
    yy = np.array([1, 1, 0])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    assert check_strong_connectivity(ds, 0.5, 1.0, GAUSSIAN).strongly_connected
    assert aggregate_connectivity(ds).strongly_connected


def test_connectivity_one_way_is_weak():
    # all wins point one direction
    ii = np.array([0, 1])
    jj = np.array([1, 2])
    tt = np.array([0.4, 0.6])
    yy = np.array([0, 0])
    ds = ComparisonDataset(3, ii, jj, tt, yy)
    report = aggregate_connectivity(ds)
    assert not report.strongly_connected
    assert report.n_components == 3


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
