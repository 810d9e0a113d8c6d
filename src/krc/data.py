"""Timestamped pairwise comparison data: ingestion, validation, indexing.

A comparison record says that at time ``t`` items ``i`` and ``j`` were
compared and the outcome was 1 exactly when ``j`` was preferred over ``i``.
Records are stored in canonical form (``i < j``); the mirrored record
``(j, i, t, 1 - y)`` denotes the same event.

Two time encodings are supported.  "unit-interval" stores times as given
(optionally rescaled to [0, 1]).  "season-day" maps game day ``k`` of
season ``l`` to ``l - 1 + k / (N_l + 1)`` where ``N_l`` is the number of
distinct game days in season ``l``, so seasons occupy consecutive unit
intervals and days are strictly ordered within a season.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import DataFormatError, RosterError
from .kernels import Kernel
from .util import float_token

_UNIT_HEADER = ("time", "item_i", "item_j", "outcome")
_SEASON_HEADER = ("season", "day", "item_i", "item_j", "outcome")


@dataclass(frozen=True)
class ComparisonRecord:
    """One timestamped comparison; outcome 1 means item_j was preferred."""

    item_i: int
    item_j: int
    time: float
    outcome: int

    def __post_init__(self):
        if self.item_i == self.item_j:
            raise DataFormatError(f"self-comparison for item {self.item_i}")
        if self.outcome not in (0, 1):
            raise DataFormatError(
                f"outcome must be 0 or 1, got {self.outcome!r} (ties unsupported)"
            )
        if not math.isfinite(self.time):
            raise DataFormatError(f"non-finite time {self.time!r}")

    def canonical(self) -> "ComparisonRecord":
        """Equivalent record with item_i < item_j."""
        if self.item_i < self.item_j:
            return self
        return ComparisonRecord(self.item_j, self.item_i, self.time, 1 - self.outcome)


@dataclass(frozen=True)
class TimeEncoding:
    """How raw rows map onto the real time axis.

    ``season_day_counts[l - 1]`` is N_l.  When counts are None the counts
    are derived from the data on ingestion (distinct day values per season,
    ranked; the stored day column is canonicalized to the rank).
    """

    scheme: str = "unit-interval"
    season_day_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.scheme not in ("unit-interval", "season-day"):
            raise ValueError(f"unknown time encoding scheme {self.scheme!r}")

    def encode(self, season: int, day: int) -> float:
        if self.scheme != "season-day":
            raise ValueError("encode() requires the season-day scheme")
        if self.season_day_counts is None:
            raise ValueError("season_day_counts not set; ingest data first")
        if not 1 <= season <= len(self.season_day_counts):
            raise ValueError(f"season {season} outside 1..{len(self.season_day_counts)}")
        n_days = self.season_day_counts[season - 1]
        if not 1 <= day <= n_days:
            raise ValueError(f"day {day} outside 1..{n_days} for season {season}")
        return (season - 1) + day / (n_days + 1)


@dataclass(frozen=True)
class ConnectivityReport:
    strongly_connected: bool
    components: tuple[tuple[int, ...], ...]
    edge_count: int

    @property
    def n_components(self) -> int:
        return len(self.components)


def season_of_time(t: float) -> int:
    """Season number containing an encoded season-day time."""
    return int(math.floor(t)) + 1


class ComparisonDataset:
    """Canonical, pair-grouped storage for comparison records.

    Internally the records live in flat numpy columns sorted by
    (item_i, item_j, time) with item_i < item_j, so per-pair histories are
    contiguous, time-sorted slices.
    """

    def __init__(
        self,
        n: int,
        item_i: np.ndarray,
        item_j: np.ndarray,
        time: np.ndarray,
        outcome: np.ndarray,
        *,
        item_labels: Sequence[str] | None = None,
        encoding: TimeEncoding | None = None,
        season: np.ndarray | None = None,
        day: np.ndarray | None = None,
        _presorted: bool = False,
    ):
        if n < 2:
            raise ValueError(f"need at least two items, got n={n}")
        ii = np.asarray(item_i, dtype=np.int64).copy()
        jj = np.asarray(item_j, dtype=np.int64).copy()
        tt = np.asarray(time, dtype=float).copy()
        yy = np.asarray(outcome, dtype=np.int64).copy()
        if not (ii.shape == jj.shape == tt.shape == yy.shape):
            raise ValueError("column length mismatch")
        if ii.size:
            if ii.min() < 0 or jj.min() < 0 or max(ii.max(), jj.max()) >= n:
                raise RosterError("item index outside 0..n-1")
            if np.any(ii == jj):
                raise DataFormatError("self-comparison in columns")
            if not ((yy == 0) | (yy == 1)).all():
                raise DataFormatError("outcomes must be 0 or 1 (ties unsupported)")
            if not np.all(np.isfinite(tt)):
                raise DataFormatError("non-finite time value")
        ss = None if season is None else np.asarray(season, dtype=np.int64).copy()
        dd = None if day is None else np.asarray(day, dtype=np.int64).copy()

        # Canonicalize orientation: item_i < item_j, outcome flipped on swap.
        swap = ii > jj
        if np.any(swap):
            ii[swap], jj[swap] = jj[swap], ii[swap].copy()
            yy[swap] = 1 - yy[swap]
        # i * n + j orders pairs as (i, j) do; a pair's segment starts where it
        # changes.  _presorted is checked, because every segment sum relies on it.
        pair_key = ii * n + jj
        if not _presorted and ii.size:
            order = np.lexsort((tt, pair_key))
            for col in (ii, jj, tt, yy, pair_key, ss, dd):
                if col is not None:  # all are private copies: permute in place
                    col[:] = col[order]
        step = np.diff(pair_key, prepend=-1)
        del pair_key
        if np.any(step < 0) or np.any((step[1:] == 0) & (np.diff(tt) < 0)):
            raise ValueError(
                "_presorted=True but records are not sorted by pair and time"
            )

        self.n = int(n)
        self.item_labels: tuple[str, ...] = (
            tuple(item_labels) if item_labels is not None
            else tuple(f"item_{k}" for k in range(n))
        )
        if len(self.item_labels) != n:
            raise ValueError("label count does not match n")
        self.encoding = encoding if encoding is not None else TimeEncoding()
        self._ii, self._jj, self._tt, self._yy = ii, jj, tt, yy
        self._season, self._day = ss, dd
        self._seg_starts = np.flatnonzero(step)
        self._seg_i, self._seg_j = ii[self._seg_starts], jj[self._seg_starts]

    # -- accessors ---------------------------------------------------------

    @property
    def n_records(self) -> int:
        return int(self._tt.size)

    @property
    def times(self) -> np.ndarray:
        """Flat time column, grouped by pair (read-only view)."""
        return self._tt

    @property
    def outcomes(self) -> np.ndarray:
        """Flat canonical outcome column aligned with :attr:`times`."""
        return self._yy

    def pair_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, item_i, item_j) describing the pair-grouped flat columns.

        ``starts`` are segment offsets suitable for ``np.add.reduceat``; the
        other two give the canonical pair each segment belongs to.
        """
        return self._seg_starts, self._seg_i, self._seg_j

    def label_of(self, index: int) -> str:
        return self.item_labels[index]

    def index_of(self, label: str) -> int:
        try:
            return self.item_labels.index(label)
        except ValueError:
            raise RosterError(f"unknown item label {label!r}") from None

    def _segments(self) -> Iterator[tuple[tuple[int, int], int, int]]:
        bounds = np.concatenate((self._seg_starts, [self.n_records])).tolist()
        pairs = zip(self._seg_i.tolist(), self._seg_j.tolist())
        return zip(pairs, bounds, bounds[1:])

    def pairs(self) -> Iterator[tuple[tuple[int, int], np.ndarray, np.ndarray]]:
        """Yield ((i, j), times, outcomes) for each observed canonical pair."""
        for key, s, e in self._segments():
            yield key, self._tt[s:e], self._yy[s:e]

    def pair_times_outcomes(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Time-sorted history for pair (i, j); empty arrays if unobserved."""
        if i == j:
            raise ValueError("a pair needs two distinct items")
        (a, b), flip = ((i, j), False) if i < j else ((j, i), True)
        rows = np.flatnonzero((self._ii == a) & (self._jj == b))
        yy = self._yy[rows]
        return self._tt[rows], (1 - yy) if flip else yy

    def pair_counts(self) -> dict[tuple[int, int], int]:
        return {key: e - s for key, s, e in self._segments()}

    def min_pair_count(self) -> int:
        """min |T_ij| over all unordered pairs; 0 when any pair is unobserved."""
        if self._seg_starts.size < self.n * (self.n - 1) // 2:
            return 0
        return int(np.diff(self._seg_starts, append=self.n_records).min())

    def records(self) -> list[ComparisonRecord]:
        return [
            ComparisonRecord(int(i), int(j), float(t), int(y))
            for i, j, t, y in zip(self._ii, self._jj, self._tt, self._yy)
        ]

    def in_time_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(time, item_i, item_j, outcome) stably sorted by time.

        Ties in time keep canonical (item_i, item_j) order, so the result is
        deterministic for a given dataset.
        """
        order = np.argsort(self._tt, kind="stable")
        return self._tt[order], self._ii[order], self._jj[order], self._yy[order]

    def time_span(self) -> tuple[float, float]:
        if self.n_records == 0:
            raise ValueError("empty dataset has no time span")
        return float(self._tt.min()), float(self._tt.max())

    # -- derived datasets --------------------------------------------------

    def with_max_time(self, t_exclusive: float) -> "ComparisonDataset":
        """Subset with strictly earlier records; roster and labels unchanged."""
        mask = self._tt < t_exclusive
        season, day = (c if c is None else c[mask] for c in (self._season, self._day))
        return ComparisonDataset(
            self.n, self._ii[mask], self._jj[mask], self._tt[mask], self._yy[mask],
            item_labels=self.item_labels, encoding=self.encoding,
            season=season, day=day, _presorted=True,
        )

    def normalized_to_unit(self) -> "ComparisonDataset":
        """Linearly rescale times onto [0, 1]."""
        lo, hi = self.time_span()
        span = hi - lo
        tt = np.zeros_like(self._tt) if span == 0 else (self._tt - lo) / span
        return ComparisonDataset(
            self.n, self._ii, self._jj, tt, self._yy,
            item_labels=self.item_labels,
            encoding=TimeEncoding("unit-interval"),
            _presorted=True,
        )

    # -- export ------------------------------------------------------------

    def export_csv(self, path: str) -> None:
        """Write records sorted by (time, item_i, item_j).

        Season-day datasets are written back in season,day form with the
        canonicalized game-day ranks, so export/ingest round-trips are stable.
        """
        order = np.lexsort((self._jj, self._ii, self._tt))
        labels = self.item_labels
        item_i = map(labels.__getitem__, self._ii[order].tolist())
        item_j = map(labels.__getitem__, self._jj[order].tolist())
        outcome = self._yy[order].tolist()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.encoding.scheme == "season-day":
                if self._season is None or self._day is None:
                    raise ValueError("season-day dataset lacks season/day columns")
                writer.writerow(_SEASON_HEADER)
                writer.writerows(zip(
                    self._season[order].tolist(), self._day[order].tolist(),
                    item_i, item_j, outcome,
                ))
            else:
                writer.writerow(_UNIT_HEADER)
                writer.writerows(zip(
                    map(float_token, self._tt[order].tolist()), item_i, item_j, outcome,
                ))


# -- CSV ingestion ---------------------------------------------------------


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


def ingest_csv(
    path: str,
    *,
    encoding: TimeEncoding | None = None,
    roster: Sequence[str] | None = None,
    normalize_times: bool = False,
) -> ComparisonDataset:
    """Read a comparison CSV into a canonical dataset.

    Accepted headers: ``time,item_i,item_j,outcome`` (unit-interval) or
    ``season,day,item_i,item_j,outcome`` (season-day).  With a roster the
    label set is fixed and unknown labels are rejected; otherwise labels are
    assigned dense indices in order of first appearance.  Errors carry the
    1-based row number (the header is row 1).

    The dialect is that of ``csv.reader``: fields may be quoted with ``"``
    (``""`` inside quotes is one quote), labels are stripped of surrounding
    whitespace, and rows that are empty or hold only whitespace and commas
    are skipped and not counted.  The body is parsed column by column in one
    ``np.loadtxt`` call; a file that fails any check, or that only
    ``csv.reader`` can read, goes through the row scanner, which raises the
    error for the first bad row or returns the same dataset.
    """
    read = None
    if os.path.isfile(path):  # not a pipe: the columnar read passes over it twice
        with open(path, newline="") as fh:
            read = _read_body(fh, encoding)
    dataset = None if read is None else _dataset_from_body(*read, encoding, roster)
    if dataset is None:
        return _ingest_rows(
            path, encoding=encoding, roster=roster, normalize_times=normalize_times
        )
    if normalize_times and dataset.encoding.scheme == "unit-interval":
        return dataset.normalized_to_unit()  # season-day times are left as encoded
    return dataset


_SCHEMES = {_UNIT_HEADER: "unit-interval", _SEASON_HEADER: "season-day"}
# Body columns as np.loadtxt reads them.  Season and day stay text so that
# they convert with int(), exactly as the row scanner parses them.
_BODY_DTYPES = {
    "unit-interval": np.dtype(
        [("time", "f8"), ("item_i", "O"), ("item_j", "O"), ("outcome", "f8")]
    ),
    "season-day": np.dtype(
        [("season", "O"), ("day", "O"), ("item_i", "O"), ("item_j", "O"),
         ("outcome", "f8")]
    ),
}
# float() rejects a time padded with these C0 separators; loadtxt strips them
# as whitespace.  They are the only characters on which the two disagree.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _plain_text(fh) -> bool:
    """Whether csv.reader and np.loadtxt read the same fields from this text.

    False when the text holds a C0 separator, or may hold a line longer than
    ``csv.field_size_limit()``: csv.reader raises on such a field, loadtxt
    does not.  Reading blocks of half the limit, a line that long would hold
    a whole block, so every block but the last must hold a newline.  A
    quoted label spanning lines is measured on its own; a quoted number
    padded across lines past the limit is not caught.
    """
    size = max(csv.field_size_limit() // 2, 1)
    block = fh.read(size)
    while block:
        if any(c in block for c in _SEPARATORS):
            return False
        following = fh.read(size)
        if following and "\n" not in block:
            return False
        block = following
    return True


def _read_body(fh, encoding: TimeEncoding | None):
    """(scheme, body) with the body from one np.loadtxt call, or None when the
    text is not plain, the header is missing, unknown or mismatched, the body
    is empty, or loadtxt rejects it."""
    try:
        if not _plain_text(fh):
            return None
        fh.seek(0)
        header = next(
            (row for row in csv.reader(fh) if row and any(c.strip() for c in row)), None
        )
        scheme = _SCHEMES.get(tuple(c.strip().lower() for c in header or ()))
        if scheme is None or (encoding is not None and encoding.scheme != scheme):
            return None
        # loadtxt warns on a body of empty lines; the row scanner reports it.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            return None
        body = np.loadtxt(
            itertools.chain([first], fh), dtype=_BODY_DTYPES[scheme],
            delimiter=",", quotechar='"', comments=None, ndmin=1,
        )
    except (ValueError, csv.Error):  # decoding errors are ValueErrors
        return None
    return scheme, body


def _dataset_from_body(
    scheme: str,
    body: np.ndarray,
    encoding: TimeEncoding | None,
    roster: Sequence[str] | None,
) -> ComparisonDataset | None:
    """The row scanner's dataset, built with array operations, or None when
    any row fails one of its checks."""
    raw_i, raw_j = body["item_i"], body["item_j"]
    # Raw labels in order of first appearance, item_i before item_j.
    first_seen = dict.fromkeys(np.stack((raw_i, raw_j), axis=1).ravel().tolist())
    stripped = {raw: raw.strip() for raw in first_seen}
    if "" in stripped.values() or max(map(len, first_seen)) > csv.field_size_limit():
        return None
    if roster is None:
        labels = list(dict.fromkeys(stripped.values()))
    else:
        labels = list(roster)
        if len(set(labels)) < len(labels) or not set(stripped.values()) <= set(labels):
            return None
    if len(labels) < 2:
        return None
    index = {lab: k for k, lab in enumerate(labels)}
    code = {raw: index[lab] for raw, lab in stripped.items()}
    ii = np.fromiter(map(code.__getitem__, raw_i), np.int64, raw_i.size)
    jj = np.fromiter(map(code.__getitem__, raw_j), np.int64, raw_j.size)
    outcome = body["outcome"]
    if np.any(ii == jj) or not np.all((outcome == 0.0) | (outcome == 1.0)):
        return None
    if scheme == "unit-interval":
        if not np.all(np.isfinite(body["time"])):
            return None
        enc, tt, season, day = TimeEncoding("unit-interval"), body["time"], None, None
    else:
        declared = None if encoding is None else encoding.season_day_counts
        encoded = _season_day_times(body["season"], body["day"], declared)
        if encoded is None:
            return None
        enc, tt, season, day = encoded
    return ComparisonDataset(
        len(labels), ii, jj, tt, outcome.astype(np.int64),
        item_labels=labels, encoding=enc, season=season, day=day,
    )


def _season_day_times(season_text, day_text, declared):
    """(encoding, times, seasons, day ranks) from the season and day columns
    as ``TimeEncoding.encode`` gives them row by row, or None when a season
    or day does not parse or lies outside its range."""
    try:
        season = season_text.astype(np.int64)  # int() of each token
        day = day_text.astype(np.int64)
    except (ValueError, OverflowError):
        return None
    if season.min() < 1:
        return None
    max_season = int(season.max())
    if declared is not None:
        counts = tuple(declared)
        # Integers below 2**53 divide in float64 exactly as Python ints do.
        if max_season > len(counts) or not all(
            type(c) is int and abs(c) < 2**53 for c in counts
        ):
            return None
        n_days = np.array(counts, dtype=np.int64)[season - 1]
        if not np.all((day >= 1) & (day <= n_days)):
            return None
        rank = day
    else:
        # Rank each day among its season's distinct days.
        keys, inverse = np.unique(
            np.stack((season, day), axis=1), axis=0, return_inverse=True
        )
        key_season = keys[:, 0]
        first = np.searchsorted(key_season, key_season)
        rank = (np.arange(key_season.size) - first + 1)[inverse.reshape(-1)]
        counts = tuple(np.bincount(key_season, minlength=max_season + 1)[1:].tolist())
        n_days = np.array(counts, dtype=np.int64)[season - 1]
    times = (season - 1) + rank / (n_days + 1)
    return TimeEncoding("season-day", counts), times, season, rank


def _ingest_rows(
    path: str,
    *,
    encoding: TimeEncoding | None = None,
    roster: Sequence[str] | None = None,
    normalize_times: bool = False,
) -> ComparisonDataset:
    """Row-by-row reading with ``csv.reader``: the reference for
    :func:`ingest_csv`, and what reports the first bad row."""
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
        ds = ComparisonDataset(
            n, np.array(ii), np.array(jj), np.array(tt), np.array(yy),
            item_labels=[lab for lab, _ in sorted(labels.items(), key=lambda kv: kv[1])],
            encoding=TimeEncoding("unit-interval"),
        )
        return ds.normalized_to_unit() if normalize_times else ds

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


# -- connectivity ----------------------------------------------------------


def _component_report(adj: np.ndarray) -> ConnectivityReport:
    n = adj.shape[0]
    n_comp, labels = csgraph.connected_components(
        csr_matrix(adj), directed=True, connection="strong"
    )
    groups: dict[int, list[int]] = {}
    for node, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(node)
    components = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=min)
    )
    return ConnectivityReport(
        strongly_connected=(n_comp == 1 and n >= 1),
        components=components,
        edge_count=int(adj.sum()),
    )


def check_strong_connectivity(
    dataset: ComparisonDataset, t: float, h: float, kernel: Kernel
) -> ConnectivityReport:
    """Connectivity of the kernel-weighted win graph at evaluation time t.

    Edge i -> j is present exactly when j's kernel-weighted win mass over i
    at time t is positive, i.e. when the transition entry (i, j) would be
    positive without regularization.  An empty edge set is disconnected.
    """
    weighted = None
    if dataset.n_records:
        # Kernel weights are finite and non-negative, so a pair's weighted win
        # mass is positive exactly when one of its records has positive weight.
        weighted = kernel.weight(t, dataset.times, h) > 0.0
    return _component_report(_win_graph(dataset, weighted))


def aggregate_connectivity(dataset: ComparisonDataset) -> ConnectivityReport:
    """Connectivity of the pooled (unweighted) win graph over all times."""
    return _component_report(_win_graph(dataset, None))


def _win_graph(dataset: ComparisonDataset, weighted: np.ndarray | None) -> np.ndarray:
    """Adjacency with i -> j when j beat i in a record marked by ``weighted``
    (every record when None), from one logical-or reduction per pair."""
    n = dataset.n
    adj = np.zeros((n, n), dtype=bool)
    starts, seg_i, seg_j = dataset.pair_segments()
    if starts.size:
        won = dataset.outcomes == 1
        lost = ~won
        if weighted is not None:
            won &= weighted
            lost &= weighted
        adj[seg_i, seg_j] = np.logical_or.reduceat(won, starts)
        adj[seg_j, seg_i] = np.logical_or.reduceat(lost, starts)
    return adj
