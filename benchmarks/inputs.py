"""Seeded benchmark inputs, built with numpy alone.

The generators follow the designs of ``krc.simulate`` without importing it,
so a change to the simulator cannot change what the ``curve``, ``stream``
and ``backtest`` workloads receive:

* the sine-skill full design: item i has skill ``alpha_i + sin(5 alpha_i t)``
  with ``alpha_i ~ U(1, 3)``, and every pair is compared ``m`` times at
  uniform times on [0, 1], item j winning with probability s_j / (s_i + s_j);
* the season schedule: log-strengths start N(0, spread^2) and take a
  N(0, drift^2) step between seasons; each game day pairs teams from a
  fresh shuffle.

Each file is written once per (seed, shape) under ``benchmarks/.cache`` and
reused.  Generation and writing are never inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

# Stream tags keep the inputs of different workloads independent even when
# they share the run seed.
_TAG_CURVE, _TAG_STREAM, _TAG_STREAM_EXTRA, _TAG_LEAGUE = 11, 23, 29, 37


@dataclass(frozen=True)
class SineDesign:
    n: int
    m: int


@dataclass(frozen=True)
class SeasonDesign:
    n: int
    n_seasons: int
    days_per_season: int
    games_per_day: int
    drift: float
    spread: float


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"item_{k:0{width}d}" for k in range(n)]


def _draw_alpha(rng: np.random.Generator, n: int) -> np.ndarray:
    alpha = rng.uniform(1.0, 3.0, size=n)
    # alpha == 1 would let the sine dip reach zero skill.
    while np.any(alpha == 1.0):
        redo = alpha == 1.0
        alpha[redo] = rng.uniform(1.0, 3.0, size=int(redo.sum()))
    return alpha


def _sine_outcomes(rng, alpha, i, j, t) -> np.ndarray:
    s_i = alpha[i] + np.sin(5.0 * alpha[i] * t)
    s_j = alpha[j] + np.sin(5.0 * alpha[j] * t)
    return (rng.random(t.shape) < s_j / (s_i + s_j)).astype(np.int64)


def sine_full_design(design: SineDesign, rng: np.random.Generator):
    """(alpha, item_i, item_j, time, outcome): m records for every pair."""
    alpha = _draw_alpha(rng, design.n)
    ii, jj = np.triu_indices(design.n, k=1)
    ii = np.repeat(ii, design.m)
    jj = np.repeat(jj, design.m)
    tt = rng.uniform(0.0, 1.0, size=ii.size)
    return alpha, ii, jj, tt, _sine_outcomes(rng, alpha, ii, jj, tt)


def sine_extra_records(alpha: np.ndarray, count: int, rng: np.random.Generator):
    """``count`` further records on random distinct pairs of the same truth."""
    n = alpha.size
    ii = rng.integers(0, n, size=count)
    jj = (ii + rng.integers(1, n, size=count)) % n
    tt = rng.uniform(0.0, 1.0, size=count)
    return ii, jj, tt, _sine_outcomes(rng, alpha, ii, jj, tt)


def season_schedule(design: SeasonDesign, rng: np.random.Generator):
    """(season, day, team_a, team_b, outcome) rows in schedule order."""
    if 2 * design.games_per_day > design.n:
        raise ValueError("too many games per day for the roster")
    log_s = rng.normal(0.0, design.spread, size=design.n)
    rows = []
    g = design.games_per_day
    for season in range(1, design.n_seasons + 1):
        s = np.exp(log_s)
        for day in range(1, design.days_per_season + 1):
            perm = rng.permutation(design.n)
            a, b = perm[0:2 * g:2], perm[1:2 * g:2]
            y = (rng.random(g) < s[b] / (s[a] + s[b])).astype(np.int64)
            rows.extend(zip([season] * g, [day] * g, a.tolist(), b.tolist(), y.tolist()))
        log_s = log_s + rng.normal(0.0, design.drift, size=design.n)
    return rows


# -- CSV writing -----------------------------------------------------------


def unit_csv_text(ii, jj, tt, yy, labels, sort: bool = True) -> str:
    """``time,item_i,item_j,outcome`` rows, sorted by time unless ``sort``
    is false; floats are written exactly."""
    order = np.lexsort((jj, ii, tt)) if sort else np.arange(tt.size)
    lines = ["time,item_i,item_j,outcome"]
    lines.extend(
        f"{t!r},{labels[a]},{labels[b]},{y}"
        for t, a, b, y in zip(
            tt[order].tolist(), ii[order].tolist(), jj[order].tolist(), yy[order].tolist()
        )
    )
    return "\n".join(lines) + "\n"


def season_csv_text(rows, labels) -> str:
    lines = ["season,day,item_i,item_j,outcome"]
    lines.extend(f"{s},{d},{labels[a]},{labels[b]},{y}" for s, d, a, b, y in rows)
    return "\n".join(lines) + "\n"


def _cached(name: str, key: dict, build) -> Path:
    """Path of the cached file for ``key``, writing it with ``build()`` once."""
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    path = CACHE_DIR / f"{name}-{digest}.csv"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(build())
        os.replace(tmp, path)
    return path


def curve_csv(seed: int, design: SineDesign) -> Path:
    def build():
        _, ii, jj, tt, yy = sine_full_design(design, _rng(seed, _TAG_CURVE))
        return unit_csv_text(ii, jj, tt, yy, _labels(design.n))

    return _cached("curve", {"seed": seed, **asdict(design)}, build)


def stream_csvs(seed: int, design: SineDesign, extra: int) -> tuple[Path, Path]:
    """Base design and the further records, drawn from a separate stream.

    The further records keep their generation order: that is the order in
    which the workload streams them.
    """
    key = {"seed": seed, **asdict(design)}
    labels = _labels(design.n)

    def base():
        _, ii, jj, tt, yy = sine_full_design(design, _rng(seed, _TAG_STREAM))
        return unit_csv_text(ii, jj, tt, yy, labels)

    def records():
        alpha = _draw_alpha(_rng(seed, _TAG_STREAM), design.n)
        ii, jj, tt, yy = sine_extra_records(alpha, extra, _rng(seed, _TAG_STREAM_EXTRA))
        return unit_csv_text(ii, jj, tt, yy, labels, sort=False)

    return (
        _cached("stream-base", key, base),
        _cached("stream-records", {**key, "extra": extra}, records),
    )


def league_csv(seed: int, league: int, design: SeasonDesign) -> Path:
    def build():
        rows = season_schedule(design, _rng(seed, _TAG_LEAGUE, league))
        return season_csv_text(rows, _labels(design.n))

    return _cached("league", {"seed": seed, "league": league, **asdict(design)}, build)
