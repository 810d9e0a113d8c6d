"""Synthetic comparison streams and season schedules."""

import numpy as np
import pytest

from krc.data import season_of_time
from krc.estimator import ScoreVector
from krc.simulate import (
    GroundTruth,
    SimConfig,
    _uniform_block,
    export_truth_csv,
    generate,
    generate_season_dataset,
    truth_probability,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=1, m=5)
    with pytest.raises(ValueError):
        SimConfig(n=4, m=0)
    with pytest.raises(ValueError):
        SimConfig(n=4, m=5, skill_family="polynomial")
    with pytest.raises(ValueError):
        SimConfig(n=4, m=5, skill_family="custom")
    with pytest.raises(ValueError):
        SimConfig(n=4, m=5, alpha=(1.5, 2.0, 2.5, 2.9))
    with pytest.raises(ValueError):
        generate(SimConfig(n=3, m=5, skill_family="custom", alpha=(1.5, 2.0)))
    with pytest.raises(ValueError):
        # coefficients at or below 1 would let skills touch zero
        generate(SimConfig(n=2, m=5, skill_family="custom", alpha=(1.0, 2.0)))


def test_generate_is_deterministic():
    a, truth_a = generate(SimConfig(n=5, m=8, seed=42))
    b, truth_b = generate(SimConfig(n=5, m=8, seed=42))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(truth_a.alpha, truth_b.alpha)
    c, _ = generate(SimConfig(n=5, m=8, seed=43))
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_generate_design_shape():
    n, m = 6, 7
    ds, truth = generate(SimConfig(n=n, m=m, seed=3))
    assert ds.n_records == m * n * (n - 1) // 2
    for (i, j), times, _ in ds.pairs():
        assert times.size == m
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() <= 1.0


def test_alpha_coefficients_in_open_interval():
    _, truth = generate(SimConfig(n=50, m=1, seed=11))
    assert truth.alpha.min() > 1.0
    assert truth.alpha.max() < 3.0


def test_skill_formula_frozen():
    truth = GroundTruth(alpha=np.array([2.0, 1.5]), dynamic=True)
    s = truth.skill(0.3)
    assert s[0] == pytest.approx(2.0 + np.sin(3.0), abs=1e-15)
    assert s[1] == pytest.approx(1.5 + np.sin(2.25), abs=1e-15)
    flat = GroundTruth(alpha=np.array([2.0, 1.5]), dynamic=False)
    assert np.array_equal(flat.skill(0.1), flat.skill(0.9))


def test_normalized_skill_is_simplex():
    _, truth = generate(SimConfig(n=8, m=1, seed=5))
    for t in (0.1, 0.5, 0.9):
        pi = truth.normalized_skill(t)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(pi) > 0.0
        sv = ScoreVector(truth.normalized_skill(t), t=t)
        assert sv.t == t


def test_truth_probability_pair():
    truth = GroundTruth(alpha=np.array([2.0, 1.5]), dynamic=False)
    # constant skills 2 and 1.5: j wins with probability 1.5/3.5
    assert truth_probability(truth, 0, 1, 0.4) == pytest.approx(1.5 / 3.5)
    assert truth_probability(truth, 1, 0, 0.4) == pytest.approx(2.0 / 3.5)


def test_empirical_win_rate_matches_truth():
    # constant skills (1.5, 3.0): win rate 3/(1.5+3) = 2/3
    m = 4000
    ds, truth = generate(
        SimConfig(n=2, m=m, seed=19, skill_family="custom", alpha=(1.5, 3.0))
    )
    # the custom family is dynamic; use a constant check through outcomes
    _, outs = ds.pair_times_outcomes(0, 1)
    rate = outs.mean()
    times, _ = ds.pair_times_outcomes(0, 1)
    expected = np.mean(
        [truth_probability(truth, 0, 1, float(t)) for t in times]
    )
    # binomial noise: 4 sigma band
    band = 4.0 * np.sqrt(0.25 / m)
    assert abs(rate - expected) < band


def test_export_truth_csv(tmp_path):
    _, truth = generate(SimConfig(n=3, m=2, seed=1))
    path = tmp_path / "truth.csv"
    export_truth_csv(truth, np.array([0.25, 0.5]), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    vals = np.array([float(x) for x in first[1:]])
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


# -- season schedules ------------------------------------------------------


def test_season_dataset_shape():
    ds, strengths = generate_season_dataset(
        n=8, n_seasons=3, days_per_season=4, games_per_day=3, seed=2
    )
    assert strengths.shape == (3, 8)
    assert ds.n_records == 3 * 4 * 3
    assert ds.encoding.scheme == "season-day"
    assert ds.encoding.season_day_counts == (4, 4, 4)
    seasons = np.array([season_of_time(float(t)) for t in ds.times])
    assert set(seasons.tolist()) == {1, 2, 3}
    assert np.min(strengths) > 0.0


def test_season_dataset_no_repeat_team_per_day():
    ds, _ = generate_season_dataset(
        n=6, n_seasons=2, days_per_season=5, games_per_day=3, seed=9
    )
    tt, ii, jj, _ = ds.in_time_order()
    for day in np.unique(tt):
        mask = tt == day
        players = np.concatenate([ii[mask], jj[mask]])
        assert len(players) == len(set(players.tolist()))


def test_season_dataset_drift_zero_is_static():
    _, strengths = generate_season_dataset(
        n=5, n_seasons=4, days_per_season=2, games_per_day=2, seed=3, drift=0.0
    )
    for l in range(1, 4):
        assert np.array_equal(strengths[l], strengths[0])


def test_season_dataset_validation():
    with pytest.raises(ValueError, match="roster"):
        generate_season_dataset(4, 2, 3, 3)
    with pytest.raises(ValueError):
        generate_season_dataset(4, 0, 3, 1)


def test_season_dataset_deterministic():
    a, sa = generate_season_dataset(6, 2, 3, 2, seed=5)
    b, sb = generate_season_dataset(6, 2, 3, 2, seed=5)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(sa, sb)


# -- counter-based draws ---------------------------------------------------

_M64 = 2**64
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64_reference(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _M64
    return z ^ (z >> 31)


def _block(seed, stream, pairs=400, m=250):
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)[stream]
    pair_key = np.arange(pairs, dtype=np.uint64)
    return _uniform_block(key, pair_key, np.empty((pairs, m)))


def test_uniform_block_matches_scalar_splitmix64():
    key = 0xDEADBEEFCAFEF00D
    pair_key = np.arange(50, dtype=np.uint64)
    u = _uniform_block(np.uint64(key), pair_key, np.empty((50, 20)))
    for p in (0, 1, 49):
        pair_seed = _splitmix64_reference((key + (p + 1) * _GAMMA) % _M64)
        for k in (0, 7, 19):
            z = _splitmix64_reference((pair_seed + (k + 1) * _GAMMA) % _M64)
            assert u[p, k] == (z >> 11) * 2.0**-53


@pytest.mark.parametrize("stream", [0, 1])
def test_uniform_block_mean_and_variance(stream):
    u = _block(2024, stream).ravel()
    size = u.size
    assert abs(u.mean() - 0.5) < 4.0 * np.sqrt(1.0 / 12.0 / size)
    # var of the sample variance of U(0, 1): (1/80 - 1/144) / size
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * np.sqrt((1 / 80 - 1 / 144) / size)
    assert u.min() >= 0.0 and u.max() < 1.0


def _corr(a, b):
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def test_uniform_block_near_zero_correlations():
    times, outs = _block(77, 0), _block(77, 1)
    band = 4.0 / np.sqrt(times[1:].size)
    assert abs(_corr(times[:-1], times[1:])) < band  # adjacent pairs
    assert abs(_corr(times[:, :-1], times[:, 1:])) < band  # adjacent counters
    assert abs(_corr(times, outs)) < band  # the two streams
    assert abs(_corr(times, _block(78, 0))) < band  # adjacent seeds


def test_generated_outcomes_independent_of_times():
    # m = 1 leaves each time unsorted, so a shared stream would make the
    # outcome a function of the time: y = [t < p_j].
    ds, truth = generate(SimConfig(n=60, m=1, seed=5, skill_family="constant"))
    s = truth.skill(0.0)
    _, seg_i, seg_j = ds.pair_segments()  # m = 1: one record per segment
    resid = ds.outcomes - s[seg_j] / (s[seg_i] + s[seg_j])
    band = 4.0 / np.sqrt(ds.n_records)
    assert abs(_corr(ds.times, resid)) < band
    other, _ = generate(SimConfig(n=60, m=1, seed=6, skill_family="constant"))
    assert abs(_corr(ds.times, other.times)) < band


def test_pair_draws_do_not_depend_on_n():
    alpha = (1.5, 2.9, 2.1, 1.2, 2.6, 1.8, 2.3, 1.4)
    small, _ = generate(
        SimConfig(n=5, m=30, seed=8, skill_family="custom", alpha=alpha[:5])
    )
    large, _ = generate(
        SimConfig(n=8, m=30, seed=8, skill_family="custom", alpha=alpha)
    )
    for j in range(1, 5):
        for i in range(j):
            t_small, y_small = small.pair_times_outcomes(i, j)
            t_large, y_large = large.pair_times_outcomes(i, j)
            assert np.array_equal(t_small, t_large)
            assert np.array_equal(y_small, y_large)
    # the sine family draws alpha per n, but a pair's times still agree
    a, _ = generate(SimConfig(n=5, m=30, seed=8))
    b, _ = generate(SimConfig(n=8, m=30, seed=8))
    for i, j in ((0, 1), (1, 3), (2, 4)):
        assert np.array_equal(
            a.pair_times_outcomes(i, j)[0], b.pair_times_outcomes(i, j)[0]
        )


def test_large_and_negative_seeds():
    big, _ = generate(SimConfig(n=4, m=10, seed=2**64 + 5))
    small, _ = generate(SimConfig(n=4, m=10, seed=5))
    assert not np.array_equal(big.times, small.times)
    with pytest.raises(ValueError):
        generate(SimConfig(n=4, m=10, seed=-1))
    with pytest.raises(ValueError):
        generate(SimConfig(n=2, m=3, seed=-1, skill_family="custom", alpha=(1.5, 2.0)))


def test_times_in_unit_interval_and_sorted_per_pair():
    ds, _ = generate(SimConfig(n=7, m=40, seed=31))
    assert ds.times.min() >= 0.0 and ds.times.max() < 1.0
    starts, _, _ = ds.pair_segments()
    assert starts.size == 21
    for times in np.split(ds.times, starts[1:]):
        assert times.size == 40
        assert np.all(np.diff(times) >= 0)
