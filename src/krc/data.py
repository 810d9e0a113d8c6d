"""Timestamped pairwise comparison data: ingestion, validation, indexing.

A comparison record says that at time ``t`` items ``i`` and ``j`` were
compared and the outcome was 1 exactly when ``j`` was preferred over ``i``.
Records are stored in canonical form (``i < j``); the mirrored record
``(j, i, t, 1 - y)`` denotes the same event.

Two time encodings are supported.  "unit-interval" stores times as given.
"season-day" maps game day ``k`` of season ``l`` to ``l - 1 + k / (N_l +
1)`` where ``N_l`` is the number of distinct game days in season ``l``, so
seasons occupy consecutive unit intervals and days are strictly ordered
within a season.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DataFormatError, KrcError, RosterError
from .kernels import Kernel
from .util import float_token

_UNIT_HEADER = ("time", "item_i", "item_j", "outcome")
_SEASON_HEADER = ("season", "day", "item_i", "item_j", "outcome")


def _check_record(item_i, item_j, time, outcome) -> None:
    """Raise DataFormatError for the first field of a comparison record that
    no record can have: a self-comparison, a tie, or a time that is not
    finite.  The roster is the caller's to check."""
    if item_i == item_j:
        raise DataFormatError(f"self-comparison for item {item_i}")
    if outcome not in (0, 1):
        raise DataFormatError(
            f"outcome must be 0 or 1, got {outcome!r} (ties unsupported)"
        )
    if not math.isfinite(time):
        raise DataFormatError(f"non-finite time {time!r}")


@dataclass(frozen=True)
class ComparisonRecord:
    """One timestamped comparison; outcome 1 means item_j was preferred."""

    item_i: int
    item_j: int
    time: float
    outcome: int

    def __post_init__(self):
        _check_record(self.item_i, self.item_j, self.time, self.outcome)


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


def _read_only(col: np.ndarray) -> np.ndarray:
    view = col.view()
    view.flags.writeable = False
    return view


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
        _owned: bool = False,
    ):
        if n < 2:
            raise ValueError(f"need at least two items, got n={n}")
        # Presorted and owned columns are taken as given, so callers hand over
        # arrays they are done with; others become private copies.  All but
        # presorted ones are then canonicalized and sorted in place.
        column = np.asarray if _presorted or _owned else np.array
        ii = column(item_i, dtype=np.int64)
        jj = column(item_j, dtype=np.int64)
        tt = column(time, dtype=float)
        yy = column(outcome, dtype=np.int64)
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
        ss = None if season is None else column(season, dtype=np.int64)
        dd = None if day is None else column(day, dtype=np.int64)

        # Canonicalize orientation: item_i < item_j, outcome flipped on swap.
        swap = ii > jj
        if np.any(swap):
            if _presorted:
                raise ValueError("_presorted=True but a record has item_i > item_j")
            ii[swap], jj[swap] = jj[swap], ii[swap].copy()
            yy[swap] = 1 - yy[swap]
        # i * n + j orders pairs as (i, j) do; a pair's segment starts where it
        # changes.  _presorted is checked, because every segment sum relies on it.
        pair_key = ii * n + jj
        if not _presorted and ii.size:
            order = np.lexsort((tt, pair_key))
            for col in (ii, jj, tt, yy, pair_key, ss, dd):
                if col is not None:  # permute the private copies in place
                    col[:] = col[order]
        # One array holds the key's steps, the first from -1: np.diff with
        # prepend holds two fresh column-sized temporaries, which the heap
        # faults in again on every call.
        step = np.empty_like(pair_key)
        step[:1] = pair_key[:1] + 1
        np.subtract(pair_key[1:], pair_key[:-1], out=step[1:])
        del pair_key
        if np.any(step < 0) or np.any((step[1:] == 0) & (tt[1:] < tt[:-1])):
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
        starts = np.flatnonzero(step != 0)
        # Stored columns are read-only views, so a dataset may share them with
        # its caller or with the dataset it was derived from.
        (
            self._ii, self._jj, self._tt, self._yy, self._season, self._day,
            self._seg_starts, self._seg_i, self._seg_j,
        ) = (
            None if col is None else _read_only(col)
            for col in (ii, jj, tt, yy, ss, dd, starts, ii[starts], jj[starts])
        )

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
        """Flat canonical outcome column aligned with :attr:`times` (read-only
        view)."""
        return self._yy

    def pair_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, item_i, item_j) describing the pair-grouped flat columns.

        ``starts`` are segment offsets suitable for ``np.add.reduceat``; the
        other two give the canonical pair each segment belongs to.
        """
        return self._seg_starts, self._seg_i, self._seg_j

    def index_of(self, label: str) -> int:
        try:
            return self.item_labels.index(label)
        except ValueError:
            raise RosterError(f"unknown item label {label!r}") from None

    def pairs(self) -> Iterator[tuple[tuple[int, int], np.ndarray, np.ndarray]]:
        """Yield ((i, j), times, outcomes) for each observed canonical pair."""
        bounds = np.concatenate((self._seg_starts, [self.n_records])).tolist()
        pairs = zip(self._seg_i.tolist(), self._seg_j.tolist())
        for key, s, e in zip(pairs, bounds, bounds[1:]):
            yield key, self._tt[s:e], self._yy[s:e]

    def in_time_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(time, item_i, item_j, outcome) stably sorted by time.

        Ties in time keep canonical (item_i, item_j) order, so the result is
        deterministic for a given dataset.
        """
        order = np.argsort(self._tt, kind="stable")
        return self._tt[order], self._ii[order], self._jj[order], self._yy[order]

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


def ingest_csv(
    path: str,
    *,
    encoding: TimeEncoding | None = None,
    roster: Sequence[str] | None = None,
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
    are skipped and not counted.  Two readers feed one column check: a
    regular file of plain text is read by one ``np.loadtxt`` call, and a
    pipe, other text, or a file whose columns fail a check by one
    ``csv.reader`` pass, whose raw fields give the first bad row's error.
    """
    read = None
    if os.path.isfile(path):  # not a pipe: a bad file is read a second time
        with open(path, newline="") as fh:
            read = _read_body(fh, encoding)
    dataset = None if read is None else _dataset(*read, encoding, roster)
    if dataset is None:
        dataset = _dataset(*_read_rows(path, encoding), encoding, roster)
    return dataset


_SCHEMES = {_UNIT_HEADER: "unit-interval", _SEASON_HEADER: "season-day"}
# Numeric columns: how a csv.reader token converts (an outcome is stripped
# first), and the dtype that both readers hand over.
_NUMBERS = {
    "time": (float, np.float64), "season": (int, np.int64), "day": (int, np.int64),
    "outcome": (lambda token: float(token.strip()), np.float64),
}
# float() rejects a time padded with these C0 separators; loadtxt strips them
# as whitespace.  They are the only characters on which the two disagree.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Every ingest error's message.  A row error is formatted from the row's raw
# fields, named as in the header, and prefixed with the row number.
_ERRORS = {
    "empty file": "{path}: empty file",
    "header": "{path}: unrecognized header {fields!r}; expected "
              "time,item_i,item_j,outcome or season,day,item_i,item_j,outcome",
    "scheme": "{path}: header implies {scheme!r} but encoding requests {requested!r}",
    "no rows": "{path}: no data rows",
    "roster": "duplicate roster label {label!r}",
    # row checks, in the order that each row is checked
    "width": "expected {width} fields, got {got}",
    "time": "bad time {time!r}",
    "finite": "non-finite time {time!r}",
    "season/day": "bad season/day {season!r},{day!r}",
    "season": "season must be >= 1, got {season_no}",
    "empty item_i": "empty item_i label",
    "unknown item_i": "label {label_i!r} not in roster",
    "empty item_j": "empty item_j label",
    "unknown item_j": "label {label_j!r} not in roster",
    "self": "self-comparison {item_i!r}",
    "outcome": "bad outcome {outcome!r}",
    "tie": "outcome must be 0 or 1, got {outcome!r} (ties unsupported)",
    # checks after every row
    "seasons": "season {season_no} exceeds declared count list ({declared})",
    "day": "day {day_no} outside 1..{count} for season {season_no}",
}


def _error(kind: str, offset: int | None = None, **fields) -> KrcError:
    """The error of this kind, for the body row at ``offset`` if one is given."""
    roster = kind in ("roster", "unknown item_i", "unknown item_j")
    text = _ERRORS[kind].format(**fields)
    error = RosterError if roster else DataFormatError
    return error(text if offset is None else f"row {offset + 2}: {text}")


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


class _Codes(dict):
    """Raw label -> code, handing the next code to a label not seen before,
    so the keys are the distinct raw labels in order of first lookup."""

    def __missing__(self, raw: str) -> int:
        self[raw] = code = len(self)
        return code


def _read_body(fh, encoding: TimeEncoding | None):
    """(scheme, columns, raw labels, None) from one np.loadtxt call, or None
    when the text is not plain, the header is missing, unknown or
    mismatched, the body is empty, or a column does not parse.

    Every column is read as numbers, so no Python object is kept per row:
    the label columns are codes into the raw labels, handed out by a
    ``_Codes`` that loadtxt calls field by field, row by row, and season and
    day go through ``int``.  This reader keeps no raw fields.
    """
    try:
        if not _plain_text(fh):
            return None
        fh.seek(0)
        header = next(
            (row for row in csv.reader(fh) if row and any(c.strip() for c in row)), None
        )
        header = tuple(c.strip().lower() for c in header or ())
        scheme = _SCHEMES.get(header)
        if scheme is None or (encoding is not None and encoding.scheme != scheme):
            return None
        # loadtxt warns on a body of empty lines; the csv.reader pass reports it.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            return None
        codes = _Codes()
        convert = {"season": int, "day": int, "item_i": codes.__getitem__,
                   "item_j": codes.__getitem__}
        body = np.loadtxt(
            itertools.chain([first], fh),
            dtype=[(name, "f8" if name in ("time", "outcome") else "i8") for name in header],
            converters={k: convert[name] for k, name in enumerate(header) if name in convert},
            delimiter=",", quotechar='"', comments=None, ndmin=1,
        )
        parsed = np.broadcast_to(True, body.shape)  # every token parsed
        columns = {
            name: (body[name], parsed) if name in _NUMBERS else body[name]
            for name in header
        }
    except (ValueError, OverflowError, csv.Error):  # decoding errors are ValueErrors
        return None
    return scheme, columns, list(codes), None


def _read_rows(path: str, encoding: TimeEncoding | None):
    """(scheme, columns, raw labels, rows) from one csv.reader pass over any
    path, a pipe included.  ``rows`` are the body's raw fields; the columns
    hold each row cut or padded with empty fields to the header's width, its
    labels coded by a ``_Codes`` in row order, item_i before item_j, as
    loadtxt codes them."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise _error("empty file", path=path)
    header = tuple(c.strip().lower() for c in rows[0])
    scheme = _SCHEMES.get(header)
    if scheme is None:
        raise _error("header", path=path, fields=rows[0])
    if encoding is not None and encoding.scheme != scheme:
        raise _error("scheme", path=path, scheme=scheme, requested=encoding.scheme)
    del rows[0]
    if not rows:
        raise _error("no rows", path=path)
    width = len(header)
    table = np.array([(row + [""] * width)[:width] for row in rows], dtype=object)
    columns = dict(zip(header, table.reshape(-1, width).T))
    for name in columns.keys() & _NUMBERS:
        columns[name] = _parse_column(columns[name], *_NUMBERS[name])
    codes = _Codes()
    pairs = np.stack((columns["item_i"], columns["item_j"]), axis=1).ravel().tolist()
    coded = np.fromiter(map(codes.__getitem__, pairs), np.int64, len(pairs))
    columns["item_i"], columns["item_j"] = coded.reshape(-1, 2).T
    return scheme, columns, list(codes), rows


def _parse_column(tokens: np.ndarray, parse, dtype):
    """(values, mask of the tokens that parse to a ``dtype`` value), with 0
    for the others: an int beyond int64 does not parse, as in loadtxt's."""
    values = np.zeros(tokens.size, dtype)
    parsed = np.ones(tokens.size, dtype=bool)
    for k, token in enumerate(tokens.tolist()):
        try:
            values[k] = parse(token)
        except (ValueError, OverflowError):
            parsed[k] = False
    return values, parsed


def _dataset(
    scheme: str, columns: dict, raw_labels: list[str], rows: list[list[str]] | None,
    encoding: TimeEncoding | None, roster: Sequence[str] | None,
) -> ComparisonDataset | None:
    """The dataset that a reader's columns hold, or the error of the first
    bad row, in the order of ``_ERRORS``.

    ``columns`` maps each header name to its column: labels as int64 codes
    into ``raw_labels``, the distinct raw labels in order of first
    appearance (item_i before item_j), and numbers as (values, mask of the
    rows that parsed).  ``rows`` holds the raw fields of each row; without
    them a failed check returns None, to read the file again.  Each check
    runs on whole columns, and only when one fails are the rows searched for
    the first that fails any.  The columns are emptied before the dataset
    sorts the fresh ones in place, with no reader's body or copy beside them.
    """
    header = tuple(columns)

    def fail(kind, offset=None, **fields) -> None:
        if rows is not None:
            raw = {} if offset is None else dict(zip(header, rows[offset]))
            raise _error(kind, offset, **raw, **fields)

    labels = None if roster is None else list(roster)
    if labels is not None and len(set(labels)) < len(labels):
        duplicate = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
        return fail("roster", label=duplicate)
    stripped = [raw.strip() for raw in raw_labels]
    if labels is None:
        labels = list(dict.fromkeys(lab for lab in stripped if lab))
    index = {lab: k for k, lab in enumerate(labels)}
    # -2 codes an empty label, -1 a label outside the roster.
    code = np.array([index.get(lab, -1) if lab else -2 for lab in stripped], np.int64)
    ii, jj = code[columns["item_i"]], code[columns["item_j"]]
    outcome, outcome_parsed = columns["outcome"]
    if scheme == "unit-interval":
        times, times_parsed = columns["time"]
    else:
        (season, season_parsed), (day, day_parsed) = columns["season"], columns["day"]

    def row_checks():
        """(kind, mask of the rows that pass it) for each row check."""
        if rows is not None:  # a row of the wrong width fails before its fields
            yield "width", np.array([len(row) == len(header) for row in rows])
        if scheme == "unit-interval":
            yield "time", times_parsed
            yield "finite", np.isfinite(times)
        else:
            yield "season/day", season_parsed & day_parsed
            yield "season", season >= 1
        if code.min() < 0:  # else every label passes
            for col, codes in (("item_i", ii), ("item_j", jj)):
                yield f"empty {col}", codes != -2
                yield f"unknown {col}", codes != -1
        yield "self", ii != jj
        yield "outcome", outcome_parsed
        yield "tie", (outcome == 0.0) | (outcome == 1.0)

    if not (
        max(map(len, raw_labels)) <= csv.field_size_limit()
        and all(passed.all() for _, passed in row_checks())
    ):
        if rows is None:
            return None
        checks = list(row_checks())
        failed = ~np.stack([passed for _, passed in checks])
        r = int(failed.any(axis=0).argmax())
        kind = checks[int(failed[:, r].argmax())][0]  # the first check that row fails
        numbers = {f"{n}_no": columns[n][0][r] for n in columns.keys() & _NUMBERS}
        return fail(
            kind, r, width=len(header), got=len(rows[r]), **numbers,
            label_i=stripped[columns["item_i"][r]], label_j=stripped[columns["item_j"][r]],
        )

    if scheme == "unit-interval":
        enc, season, day, times = TimeEncoding("unit-interval"), None, None, times.copy()
    else:
        declared = None if encoding is None else encoding.season_day_counts
        encoded = _season_day(season, day, declared, fail)
        if encoded is None:
            return None
        enc, season, day, times = encoded
    # Every column the dataset gets is a fresh array, so dropping the reader's
    # columns (loadtxt's are views of its whole body) frees them before the
    # dataset sorts them in place as its own.
    outcome = outcome.astype(np.int64)
    columns.clear()
    return ComparisonDataset(
        len(labels), ii, jj, times, outcome,
        item_labels=labels, encoding=enc, season=season, day=day, _owned=True,
    )


def _season_day(season: np.ndarray, day: np.ndarray, declared, fail):
    """(encoding, season, day rank, time) as fresh columns, or ``fail``'s
    result for the first season beyond ``declared`` or day outside it."""
    if declared is not None and season.max() > len(declared):
        return fail("seasons", season_no=season.max(), declared=len(declared))
    if declared is None:
        # Rank each day among its season's distinct days.
        keys, inverse = np.unique(
            np.stack((season, day), axis=1), axis=0, return_inverse=True
        )
        key_season = keys[:, 0]
        first = np.searchsorted(key_season, key_season)
        rank = (np.arange(key_season.size) - first + 1)[inverse.reshape(-1)]
        counts = tuple(
            np.bincount(key_season, minlength=int(season.max()) + 1)[1:].tolist()
        )
        n_days = np.array(counts, dtype=np.int64)[season - 1]
    else:
        counts, rank = tuple(declared), day.copy()
        # Ints below 2**53 divide in float64 exactly as TimeEncoding.encode
        # divides them; other counts divide as the Python objects they are.
        plain = all(type(c) is int and abs(c) < 2**53 for c in counts)
        n_days = np.array(counts, dtype=np.int64 if plain else object)[season - 1]
        outside = ~((rank >= 1) & (rank <= n_days))
        if outside.any():
            r = int(outside.argmax())
            return fail("day", r, day_no=rank[r], count=counts[season[r] - 1],
                        season_no=season[r])
    times = np.asarray((season - 1) + rank / (n_days + 1), dtype=float)
    return TimeEncoding("season-day", counts), season.copy(), rank, times


# -- connectivity ----------------------------------------------------------


def _component_report(adj: np.ndarray) -> ConnectivityReport:
    from .estimator import _strong_components  # estimator imports this module

    labels = _strong_components(adj[None])[0]
    _, first = np.unique(labels, return_index=True)
    components = tuple(  # each sorted, in the order of their smallest items
        tuple(np.flatnonzero(labels == labels[k]).tolist()) for k in np.sort(first)
    )
    return ConnectivityReport(
        strongly_connected=len(components) == 1,
        components=components,
        edge_count=int(adj.sum()),
    )


def check_strong_connectivity(
    dataset: ComparisonDataset, t: float, h: float, kernel: Kernel
) -> ConnectivityReport:
    """Connectivity of the kernel-weighted win graph at evaluation time t.

    Edge i -> j is present exactly when some record in which j beat i has
    positive kernel weight at time t.  The unregularized chain lacks that
    edge when j's share of the pair's mass rounds to 0, so fits check the
    chain they solve, not this graph.  An empty edge set is disconnected.
    """
    # Kernel weights are finite and non-negative, so a pair's weighted win
    # mass is positive exactly when one of its records has positive weight.
    weighted = kernel.weight(t, dataset.times, h) > 0.0
    return _component_report(_win_graph(dataset, weighted))


def _win_graph(dataset: ComparisonDataset, weighted: np.ndarray) -> np.ndarray:
    """Adjacency with i -> j when j beat i in a record marked by ``weighted``,
    from one logical-or reduction per pair."""
    n = dataset.n
    adj = np.zeros((n, n), dtype=bool)
    starts, seg_i, seg_j = dataset.pair_segments()
    if starts.size:
        won = dataset.outcomes == 1
        adj[seg_i, seg_j] = np.logical_or.reduceat(won & weighted, starts)
        adj[seg_j, seg_i] = np.logical_or.reduceat(~won & weighted, starts)
    return adj
