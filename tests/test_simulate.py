"""Synthetic comparison streams and season schedules."""

import numpy as np
import pytest

from krc import simulate
from krc.data import ComparisonDataset, TimeEncoding
from krc.estimator import ScoreVector
from krc.simulate import (
    GroundTruth,
    SimConfig,
    _build_truth,
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
    ((_, times, outs),) = ds.pairs()
    rate = outs.mean()
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
    seasons = np.array([int(np.floor(t)) + 1 for t in ds.times])
    assert set(seasons.tolist()) == {1, 2, 3}
    assert np.min(strengths) > 0.0


def test_season_dataset_times_are_the_encoding_of_season_and_day():
    ds, _ = generate_season_dataset(
        n=6, n_seasons=4, days_per_season=7, games_per_day=2, seed=5
    )
    enc = ds.encoding
    for l, k, t in zip(ds._season.tolist(), ds._day.tolist(), ds.times.tolist()):
        assert t == enc.encode(l, k)


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
    large_pairs = {key: (times, outs) for key, times, outs in large.pairs()}
    small_pairs = list(small.pairs())
    assert len(small_pairs) == 10  # every pair of the first five items
    for key, t_small, y_small in small_pairs:
        t_large, y_large = large_pairs[key]
        assert np.array_equal(t_small, t_large)
        assert np.array_equal(y_small, y_large)
    # the sine family draws alpha per n, but a pair's times still agree
    a, _ = generate(SimConfig(n=5, m=30, seed=8))
    b, _ = generate(SimConfig(n=8, m=30, seed=8))
    a_times = {key: times for key, times, _ in a.pairs()}
    b_times = {key: times for key, times, _ in b.pairs()}
    for key in ((0, 1), (1, 3), (2, 4)):
        assert np.array_equal(a_times[key], b_times[key])


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


# -- two-precision outcomes ------------------------------------------------


def reference_generate(config: SimConfig):
    """The float64 ``generate`` that the two-precision one replaced, verbatim."""
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


def assert_bitwise_reference(config: SimConfig):
    ds, truth = generate(config)
    ref, ref_truth = reference_generate(config)
    assert np.array_equal(truth.alpha, ref_truth.alpha)
    assert np.array_equal(ds.times, ref.times)
    assert np.array_equal(ds.outcomes, ref.outcomes)
    assert ds.outcomes.dtype == ref.outcomes.dtype
    for got, want in zip(ds.pair_segments(), ref.pair_segments()):
        assert np.array_equal(got, want)
    return ds, truth


def _custom(n, m, seed, scale):
    alpha = 1.0 + np.random.default_rng((seed, 5)).uniform(0.0, scale, n)
    return SimConfig(n=n, m=m, seed=seed, skill_family="custom", alpha=tuple(alpha))


def _sweep_configs():
    """Edge sizes, then seeded sizes over n in [2, 100] and m in [1, 200]:
    about 5.6 million records in all."""
    configs = [
        SimConfig(n=2, m=1, seed=0),
        SimConfig(n=100, m=200, seed=1),
        SimConfig(n=100, m=1, seed=2),
        SimConfig(n=2, m=200, seed=3),
        SimConfig(n=100, m=200, seed=4, skill_family="constant"),
        SimConfig(n=2, m=1, seed=5, skill_family="constant"),
        _custom(100, 200, 6, 1e4),  # alpha up to 1e4: X near 5e4
        _custom(2, 1, 7, 2.0),
        _custom(30, 100, 8, 1e6),  # X near 5e6, under the float32 limit
        _custom(20, 50, 9, 1e7),  # X past 2^23: the whole block in float64
    ]
    rng = np.random.default_rng(2024)
    for k in range(24):
        n, m = int(rng.integers(2, 101)), int(rng.integers(1, 201))
        family = ("sine", "constant", "custom")[k % 3]
        if family == "custom":
            configs.append(_custom(n, m, 100 + k, float(10.0 ** rng.uniform(0, 4))))
        else:
            configs.append(SimConfig(n=n, m=m, seed=100 + k, skill_family=family))
    return configs


@pytest.mark.parametrize(
    "config", _sweep_configs(),
    ids=lambda c: f"{c.skill_family}-n{c.n}-m{c.m}-s{c.seed}",
)
def test_generate_is_bitwise_the_float64_formula(config):
    assert_bitwise_reference(config)


def exact_records(monkeypatch):
    """Record the size of every float64 decision: (records, whole block)."""
    seen = []
    real = simulate._decide

    def spy(u, s_i, s_j, out=None):
        seen.append((u.size, out is not None))
        return real(u, s_i, s_j, out)

    monkeypatch.setattr(simulate, "_decide", spy)
    return seen


def test_thin_records_take_the_float64_formula_over_a_seed_sweep(monkeypatch):
    seen = exact_records(monkeypatch)
    for seed in range(30):
        assert_bitwise_reference(SimConfig(n=40, m=60, seed=seed))
    assert seen and not any(whole for _, whole in seen)
    # about 6e-6 of the records lie inside the margin
    assert 0 < sum(size for size, _ in seen) < 30 * 46_800 * 1e-4


def test_every_record_inside_a_patched_margin_is_bitwise(monkeypatch):
    seen = exact_records(monkeypatch)
    monkeypatch.setattr(simulate, "_margin", lambda delta, a_max: np.inf)
    for config in (SimConfig(n=30, m=70, seed=3), _custom(12, 150, 4, 1e4)):
        ds, _ = assert_bitwise_reference(config)
        assert seen.pop() == (ds.n_records, False)


def _shifted_sine(signs, budget):
    """float32 sines moved by ``sign * budget`` from float64 sin, rounded to
    float32 toward it: the largest error that the budget admits.  The signs
    are item i's, then item j's; (+1, -1) raises every e by the whole
    budget, and (-1, +1) lowers it."""
    signs = iter(signs)

    def sin32(x, out):
        sign = next(signs)
        target = np.sin(x) + sign * budget
        out[...] = target
        over = sign * (out - target) > 0
        out[over] = np.nextafter(out[over], np.float32(-sign * np.inf))
        return out

    return sin32


SHIFTS = pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0)], ids=["up", "down"])


@SHIFTS
@pytest.mark.parametrize(
    "config",
    [SimConfig(n=100, m=200, seed=11), SimConfig(n=40, m=60, seed=12),
     _custom(30, 100, 13, 1e4)],
    ids=["sine-n100", "sine-n40", "custom-1e4"],
)
def test_sines_off_by_the_full_budget_give_bitwise_outcomes(monkeypatch, config, signs):
    ref, truth = reference_generate(config)
    x_max = 5.0 * float(truth.alpha.max()) * float(ref.times.max())  # as generate bounds it
    seen = exact_records(monkeypatch)
    monkeypatch.setattr(simulate, "_sin32", _shifted_sine(signs, simulate._sine_budget(x_max)))
    ds, _ = generate(config)
    assert np.array_equal(ds.outcomes, ref.outcomes)
    assert not any(whole for _, whole in seen)  # decided from the shifted sines


@pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0), None], ids=["up", "down", "exact"])
@pytest.mark.parametrize("scale", [2.0, 1e4])
def test_records_planted_at_their_decision_are_bitwise(monkeypatch, signs, scale):
    # Simulated records are rarely near their decision (about 6e-6 inside the
    # margin), so here u is planted within twice the margin of it.
    rng = np.random.default_rng(17)
    alpha = 1.0 + rng.uniform(0.0, scale, 30)
    iu, ju = np.triu_indices(alpha.size, 1)
    tt = np.sort(rng.random((iu.size, 100)), axis=1)
    a_i, a_j = alpha[iu, None], alpha[ju, None]
    s_i, s_j = np.sin(5.0 * a_i * tt) + a_i, np.sin(5.0 * a_j * tt) + a_j
    p = s_j / (s_i + s_j)  # the float64 formula's
    x_max, a_max = 5.0 * alpha.max() * tt.max(), float(alpha.max())
    delta = simulate._sine_budget(x_max) + (a_max + 2.0) * 2.0**-52
    margin = simulate._margin(delta, a_max)
    u = p + rng.uniform(-2.0, 2.0, p.shape) * margin / (s_i + s_j)
    flat_u, flat_p = u.reshape(-1), p.reshape(-1)
    flat_u[::50] = flat_p[::50]
    flat_u[1::50] = np.nextafter(flat_p[1::50], 0.0)
    flat_u[2::50] = np.nextafter(flat_p[2::50], 1.0)
    seen = exact_records(monkeypatch)
    if signs is not None:
        monkeypatch.setattr(simulate, "_sin32", _shifted_sine(signs, simulate._sine_budget(x_max)))
    yy = simulate._sine_outcomes(a_i, a_j, tt, u, np.empty_like(tt), np.empty_like(tt))
    assert np.array_equal(yy, u < p)
    ((thin, whole),) = seen
    assert not whole and 0.3 < thin / u.size < 0.7


def test_sines_off_by_more_than_the_margin_change_outcomes(monkeypatch):
    # The check above has teeth: a shift of 1e-3 moves records past the margin.
    config = SimConfig(n=40, m=60, seed=12)
    ref, _ = reference_generate(config)
    monkeypatch.setattr(simulate, "_sin32", _shifted_sine((1.0, -1.0), 1e-3))
    ds, _ = generate(config)
    assert not np.array_equal(ds.outcomes, ref.outcomes)


def test_float32_sine_within_its_budget():
    # The sine family's arguments lie in [0, 15); the float32 path takes any
    # argument below 2^23.  Measured: at most 4.9e-7 on [0, 15), mostly the
    # argument's own float32 rounding.
    rng = np.random.default_rng(7)
    x = np.concatenate([
        np.linspace(0.0, 15.0, 2_000_001),
        rng.uniform(15.0, 2.0**23, 500_000),
        2.0 ** np.arange(-30, 23),
    ])
    out = simulate._sin32(x, np.empty(x.size, dtype=np.float32))
    assert out.dtype == np.float32
    err = np.abs(out - np.sin(x))
    assert np.all(err <= simulate._sine_budget(x))
    assert err[x < 15.0].max() < 5e-7


def test_skill_near_zero_decides_the_whole_block_in_float64(monkeypatch):
    # float32 sines of -3 put every skill below delta: the float64 formula,
    # with its check, decides the whole block.
    seen = exact_records(monkeypatch)
    monkeypatch.setattr(simulate, "_sin32", lambda x, out: np.copyto(out, -3.0) or out)
    ds, _ = assert_bitwise_reference(SimConfig(n=10, m=30, seed=2))
    assert seen == [(ds.n_records, True)]


def test_arguments_past_float32_decide_the_whole_block_in_float64(monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "_sin32", lambda x, out: calls.append(x.size))
    config = _custom(6, 40, 3, 1e7)
    assert 5.0 * max(config.alpha) > 2.0**23
    assert_bitwise_reference(config)
    assert calls == []


def test_alphas_past_float32_decide_the_whole_block_in_float64(monkeypatch):
    # Tiny times keep X small, but alpha = 1e300 would overflow float32.
    calls = []
    monkeypatch.setattr(simulate, "_sin32", lambda x, out: calls.append(x.size))
    a_i, a_j = np.array([[1e300]]), np.array([[2.0]])
    tt = np.array([[1e-310, 1e-305]])
    u = np.array([[1e-301, 0.5]])
    yy = simulate._sine_outcomes(a_i, a_j, tt, u, np.empty_like(tt), np.empty_like(tt))
    s_i, s_j = np.sin(5.0 * a_i * tt) + a_i, np.sin(5.0 * a_j * tt) + a_j
    assert np.array_equal(yy, u < s_j / (s_i + s_j))
    assert yy.tolist() == [[1, 0]] and calls == []


def test_non_positive_skill_raises_under_a_patched_sine(monkeypatch):
    real = np.sin

    def sin(x, out=None, **kwargs):  # every sine, float32 or float64, is -3
        out = real(x, out=out, **kwargs)
        out[...] = -3.0
        return out

    monkeypatch.setattr(np, "sin", sin)
    with pytest.raises(RuntimeError, match="non-positive skill"):
        generate(SimConfig(n=4, m=5, seed=0))
    with pytest.raises(RuntimeError, match="non-positive skill"):
        reference_generate(SimConfig(n=4, m=5, seed=0))
