"""Synthetic comparison streams with known ground truth.

The default skill family is sinusoidal: item i has skill
``alpha_i + sin(5 alpha_i t)`` on t in [0, 1] with ``alpha_i ~ U(1, 3)``,
so skills stay strictly positive and each item oscillates at its own
frequency.  Every unordered pair receives ``m`` comparisons at uniform
random times with outcomes drawn from the preference model.

Comparison draws come from a counter-based SplitMix64 generator (Steele,
Lea & Flood 2014) run over the whole (pairs x m) block in numpy ``uint64``
arithmetic.  Each draw is keyed by a seed key from ``SeedSequence(seed)``,
the pair key ``j (j - 1) / 2 + i``, a stream (0: times, 1: outcomes) and a
counter, so a pair's draws depend on (seed, i, j) only, not on n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ComparisonDataset, TimeEncoding
from .util import float_token, format_float_array, write_csv

_FAMILIES = ("sine", "constant", "custom")


@dataclass(frozen=True)
class SimConfig:
    n: int
    m: int
    seed: int = 0
    skill_family: str = "sine"
    alpha: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two items")
        if self.m < 1:
            raise ValueError("need at least one comparison per pair")
        if self.skill_family not in _FAMILIES:
            raise ValueError(
                f"unknown skill family {self.skill_family!r}; "
                f"expected one of {_FAMILIES}"
            )
        if self.skill_family == "custom" and self.alpha is None:
            raise ValueError("custom skill family needs explicit alpha coefficients")
        if self.skill_family != "custom" and self.alpha is not None:
            raise ValueError("alpha coefficients only apply to the custom family")


@dataclass(frozen=True)
class GroundTruth:
    """Latent skill curves; ``dynamic`` switches the sine term on."""

    alpha: np.ndarray
    dynamic: bool

    def skill(self, t: float) -> np.ndarray:
        if self.dynamic:
            return self.alpha + np.sin(5.0 * self.alpha * t)
        return self.alpha.copy()

    def normalized_skill(self, t: float) -> np.ndarray:
        s = self.skill(t)
        return s / s.sum()


def truth_probability(truth: GroundTruth, i: int, j: int, t: float) -> float:
    """P(item j preferred over item i at time t); scale-invariant."""
    s = truth.skill(t)
    return float(s[j] / (s[i] + s[j]))


def _draw_alpha(rng: np.random.Generator, n: int) -> np.ndarray:
    alpha = rng.uniform(1.0, 3.0, size=n)
    # alpha == 1 exactly would allow the sine dip to touch zero skill.
    while np.any(alpha == 1.0):
        redo = alpha == 1.0
        alpha[redo] = rng.uniform(1.0, 3.0, size=int(redo.sum()))
    return alpha


def _build_truth(config: SimConfig) -> GroundTruth:
    if config.skill_family == "custom":
        alpha = np.asarray(config.alpha, dtype=float)
        if alpha.shape != (config.n,):
            raise ValueError(f"alpha must have length n={config.n}")
        if np.min(alpha) <= 1.0:
            raise ValueError("custom alpha must exceed 1 so skills stay positive")
        return GroundTruth(alpha=alpha, dynamic=True)
    rng = np.random.default_rng((config.seed, 0, 0))
    alpha = _draw_alpha(rng, config.n)
    return GroundTruth(alpha=alpha, dynamic=(config.skill_family == "sine"))


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))


def _splitmix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix applied to ``z`` in place; ``tmp`` is scratch."""
    for shift, mult in _MIX:
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if mult is not None:
            np.multiply(z, np.uint64(mult), out=z)
    return z


def _uniform_block(key, pair_key: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (pairs, m) with uniforms in [0, 1) from draws 1..m."""
    seed = (pair_key + np.uint64(1)) * _GAMMA + key
    counter = np.arange(1, out.shape[1] + 1, dtype=np.uint64) * _GAMMA
    z = np.add.outer(_splitmix64(seed, np.empty_like(seed)), counter)
    _splitmix64(z, out.view(np.uint64))  # out is scratch until the last step
    return np.multiply(np.right_shift(z, np.uint64(11), out=z), 2.0**-53, out=out)


def generate(config: SimConfig) -> tuple[ComparisonDataset, GroundTruth]:
    """Simulate the full comparison design: m outcomes for every pair."""
    truth = _build_truth(config)
    n, m = config.n, config.m
    key = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    iu, ju = np.triu_indices(n, 1)
    pair_key = (ju * (ju - 1) // 2 + iu).astype(np.uint64)
    tt = _uniform_block(key[0], pair_key, np.empty((iu.size, m)))
    tt.sort(axis=1)
    u = _uniform_block(key[1], pair_key, np.empty_like(tt))
    s_i, s_j = np.empty_like(tt), np.empty_like(tt)
    for s, a in ((s_i, truth.alpha[iu, None]), (s_j, truth.alpha[ju, None])):
        if truth.dynamic:
            np.sin(np.multiply(5.0 * a, tt, out=s), out=s)
            s += a
        else:
            s[:] = a
    if s_i.min() <= 0 or s_j.min() <= 0:
        raise RuntimeError("non-positive skill in generator")
    p_j = np.divide(s_j, np.add(s_i, s_j, out=s_i), out=s_j)
    yy = np.less(u, p_j, out=s_i.view(np.int64))
    del s, s_i, s_j, p_j, u  # free the work blocks the dataset does not keep
    dataset = ComparisonDataset(
        n, np.repeat(iu, m), np.repeat(ju, m), tt.ravel(), yy.ravel(),
        encoding=TimeEncoding("unit-interval"), _presorted=True,
    )
    return dataset, truth


def export_truth_csv(
    truth: GroundTruth,
    grid,
    path: str,
    labels=None,
) -> None:
    """Write the simplex-normalized truth curve on a grid: ``t,item_0,...``
    one row per point."""
    grid = np.asarray(grid, dtype=float).ravel()
    n = truth.alpha.shape[0]
    header = ["t"] + list(labels or (f"item_{k}" for k in range(n)))
    rows = []
    for t in grid:
        rows.append([float_token(t)] + format_float_array(truth.normalized_skill(t)))
    write_csv(path, header, rows)


def generate_season_dataset(
    n: int,
    n_seasons: int,
    days_per_season: int,
    games_per_day: int,
    seed: int = 0,
    drift: float = 0.5,
    spread: float = 1.0,
) -> tuple[ComparisonDataset, np.ndarray]:
    """Schedule-style data: seasons of game days with slowly drifting skills.

    Log-strengths start N(0, spread^2) and take a N(0, drift^2) random-walk
    step between seasons, constant within a season.  Each game day pairs up
    teams from a fresh shuffle (a team plays at most once per day), so
    ``2 * games_per_day <= n`` is required.  Returns the dataset (season-day
    time encoding) and the (n_seasons, n) strength matrix.
    """
    if 2 * games_per_day > n:
        raise ValueError("too many games per day for the roster")
    if n_seasons < 1 or days_per_season < 1 or games_per_day < 1:
        raise ValueError("season shape parameters must be positive")
    rng = np.random.default_rng((seed, 7, 101))
    log_s = rng.normal(0.0, spread, size=n)
    strengths = np.empty((n_seasons, n))
    ii, jj, yy, ss, dd = [], [], [], [], []
    for l in range(1, n_seasons + 1):
        strengths[l - 1] = np.exp(log_s)
        s = strengths[l - 1]
        for k in range(1, days_per_season + 1):
            perm = rng.permutation(n)
            for g in range(games_per_day):
                a, b = int(perm[2 * g]), int(perm[2 * g + 1])
                p_b = s[b] / (s[a] + s[b])
                ii.append(a)
                jj.append(b)
                yy.append(int(rng.random() < p_b))
                ss.append(l)
                dd.append(k)
        log_s = log_s + rng.normal(0.0, drift, size=n)
    enc = TimeEncoding("season-day", (days_per_season,) * n_seasons)
    tt = np.array([enc.encode(l, k) for l, k in zip(ss, dd)])
    dataset = ComparisonDataset(
        n, np.array(ii), np.array(jj), tt, np.array(yy),
        encoding=enc,
        season=np.array(ss),
        day=np.array(dd),
    )
    return dataset, strengths
