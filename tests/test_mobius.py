import math

import numpy as np
import pytest

import conjlab.mobius
from conjlab.mobius import (
    GrowthReport,
    growth_statistic,
    mertens,
    mobius_segments,
    mobius_sieve,
    random_walk_compare,
)

from em_zeta import mertens_direct, mobius_direct

_FIRST_TEN = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mobius_first_ten():
    table = mobius_sieve(10)
    assert table.values[1:11].tolist() == _FIRST_TEN


@pytest.mark.parametrize(
    "n,mu",
    [(1, 1), (4, 0), (6, 1), (12, 0), (30, -1), (49, 0), (997, -1), (2 * 3 * 5 * 7, 1)],
)
def test_mobius_point_values(n, mu):
    assert int(mobius_sieve(n).values[n]) == mu


def test_mobius_matches_direct_oracle():
    limit = 100_000
    assert mobius_sieve(limit).values.tolist() == mobius_direct(limit).tolist()


def test_mobius_segment_size_invariance():
    limit = 30_000
    ref = mobius_sieve(limit)
    for seg in (1, 7, 997, 4096, limit + 10):
        assert np.array_equal(mobius_sieve(limit, seg).values, ref.values)


def test_mobius_telescoping():
    # sum of mu over the divisors of n vanishes except at n = 1
    limit = 10_000
    mu = mobius_sieve(limit).values.astype(np.int64)
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sums[d::d] += mu[d]
    assert sums[1] == 1
    assert not sums[2:].any()


def test_mobius_multiplicative_on_coprime_pairs():
    mu = mobius_sieve(1_000_000).values
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 300:
        a = int(rng.integers(1, 1000))
        b = int(rng.integers(1, 1000))
        if math.gcd(a, b) != 1:
            continue
        assert int(mu[a * b]) == int(mu[a]) * int(mu[b])
        checked += 1


def test_mobius_validation():
    with pytest.raises(ValueError):
        mobius_sieve(0)
    with pytest.raises(ValueError):
        mobius_sieve(2**31)
    with pytest.raises(ValueError):
        list(mobius_segments(10, 0))


def test_squarefree_count():
    assert mobius_sieve(10).squarefree_count() == 7
    # 6 / pi^2 density, loose window
    assert abs(mobius_sieve(100_000).squarefree_count() / 100_000 - 6 / math.pi**2) < 1e-3


def test_mertens_known_values():
    series = mertens(10_000)
    assert series.partial_sums[0] == 0
    assert series.partial_sums[1] == 1
    assert series.partial_sums[2] == 0
    assert series.partial_sums[10] == -1
    assert series.partial_sums[100] == 1
    assert series.partial_sums[10_000] == -23


def test_mertens_matches_direct_oracle():
    limit = 50_000
    series = mertens(limit)
    oracle = mobius_direct(limit).astype(np.int64).cumsum()
    assert series.partial_sums.tolist() == oracle.tolist()
    assert series.partial_sums[limit] == mertens_direct(limit)


def test_mertens_min_max_fields():
    series = mertens(10_000)
    assert series.min == int(series.partial_sums[1:].min())
    assert series.max == int(series.partial_sums[1:].max())
    assert series.min <= -1 <= series.max


def test_mertens_segment_size_invariance():
    ref = mertens(20_000)
    for seg in (64, 1023, 20_000, 10**6):
        other = mertens(20_000, seg)
        assert np.array_equal(other.partial_sums, ref.partial_sums)
        assert (other.min, other.max) == (ref.min, ref.max)


def test_growth_statistic_trivial_limit():
    # M(2) = 0, so the sup is 0 and the first admissible n is reported
    r = growth_statistic(mertens(2), 0.0)
    assert r == GrowthReport(epsilon=0.0, sup_statistic=0.0, argmax_n=2)


def test_growth_statistic_small_limit():
    # |M(5)| = 2 dominates everything below 10^4
    r = growth_statistic(mertens(10_000), 0.0)
    assert r.argmax_n == 5
    assert r.sup_statistic == pytest.approx(2 / math.sqrt(5), rel=1e-12)


def test_growth_statistic_epsilon_monotone():
    series = mertens(10_000)
    a = growth_statistic(series, 0.0)
    b = growth_statistic(series, 0.1)
    assert b.sup_statistic <= a.sup_statistic


def test_growth_statistic_validation():
    with pytest.raises(ValueError):
        growth_statistic(mertens(100), -0.01)


def test_random_walk_compare_fields():
    r = random_walk_compare(10_000, 40, seed=2)
    assert r.n_limit == 10_000
    assert r.trials == 40
    assert r.walk_length == 6083
    assert r.walk_length == mobius_sieve(10_000).squarefree_count()
    assert 0.0 <= r.percentile_rank <= 1.0
    assert r.mertens_statistic == pytest.approx(2 / math.sqrt(5), rel=1e-12)
    assert r.walk_mean_statistic > 0
    assert r.final_position_sem > 0
    # unbiased steps: the mean endpoint stays within a few standard errors
    assert abs(r.mean_final_position) <= 4 * r.final_position_sem


def test_random_walk_compare_reproducible():
    a = random_walk_compare(3000, 16, seed=9)
    b = random_walk_compare(3000, 16, seed=9, workers=4)
    c = random_walk_compare(3000, 16, seed=9, segment_size=512)
    assert a == b == c


def test_random_walk_compare_validation():
    with pytest.raises(ValueError):
        random_walk_compare(1, 10, seed=0)
    with pytest.raises(ValueError):
        random_walk_compare(100, 0, seed=0)


def test_random_walk_compare_sieves_once(monkeypatch):
    passes = []
    segments = conjlab.mobius.mobius_segments

    def counting(limit, *args, **kwargs):
        passes.append(limit)
        yield from segments(limit, *args, **kwargs)

    monkeypatch.setattr(conjlab.mobius, "mobius_segments", counting)
    random_walk_compare(1000, 2, seed=0)
    assert passes == [1000]


@pytest.mark.parametrize("limit", [2, 3, 1000])
def test_walk_length_is_squarefree_count(limit):
    r = random_walk_compare(limit, 1, seed=0, segment_size=7)
    assert r.walk_length == mobius_sieve(limit).squarefree_count()
