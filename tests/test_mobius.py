import itertools
import math
import subprocess
import sys

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
from philox_reference import stream_bits, stream_words

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


@pytest.mark.parametrize(
    "limit,message", [(-5, "positive integer"), (2**45, "must not exceed 2147483647")]
)
def test_mobius_sieve_validates_before_it_allocates(limit, message):
    with pytest.raises(ValueError, match=message):
        mobius_sieve(limit)


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


# --- the multiplying sieve, the streamed growth statistic, blocked walks ----

_SIEVE_LIMITS = [1, 2, 2**20, 2**20 + 1, 3 * 2**20 + 5]


def _divide_sieve(limit):
    # the sieve as it was before it multiplied: divide each base prime out
    # of n once and flip mu where a cofactor above 1 is left
    root = math.isqrt(limit)
    base = [p for p in range(2, root + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    rem = np.arange(limit + 1, dtype=np.int64)
    for p in base:
        mu[p::p] *= -1
        rem[p::p] //= p
        mu[p * p :: p * p] = 0
    big = rem > 1
    mu[big] = -mu[big]
    return mu


@pytest.fixture(scope="module")
def divided():
    return {limit: _divide_sieve(limit) for limit in _SIEVE_LIMITS}


@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_multiplying_sieve_matches_divide_sieve(limit, divided):
    assert np.array_equal(mobius_sieve(limit).values, divided[limit])


@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_mertens_matches_cumsum_of_divide_sieve(limit, divided):
    # past 2^16 the running sum is carried from block to block
    assert mertens(limit).partial_sums.tolist() == divided[limit].cumsum().tolist()


@pytest.mark.parametrize("segment_size", [7, 512])
@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_small_segments_match_divide_sieve_at_both_ends(limit, segment_size, divided):
    # a full sweep in segments of 7 or 512 past 2^20 takes seconds to
    # minutes, so check the first and the last four segments of the split
    ref = divided[limit]
    for lo, mu in itertools.islice(mobius_segments(limit, segment_size), 4):
        assert np.array_equal(mu, ref[lo : lo + mu.size])
    base = conjlab.mobius._base_primes(math.isqrt(limit))
    los = range(1, limit + 1, segment_size)
    for lo in los[-4:]:
        hi = min(lo + segment_size - 1, limit)
        assert np.array_equal(conjlab.mobius._mobius_block(lo, hi, base), ref[lo : hi + 1])


@pytest.mark.parametrize("limit,segment_size", [(10_007, 7), (2**16 + 1, 512)])
def test_multiplying_sieve_small_segments_full_sweep(limit, segment_size):
    assert np.array_equal(mobius_sieve(limit, segment_size).values, _divide_sieve(limit))


def test_sieve_block_at_the_int32_top_matches_trial_division():
    # the product of distinct base primes stays <= n <= 2^31 - 1 in int32
    lo, hi = 2**31 - 1024, 2**31 - 1
    base = conjlab.mobius._base_primes(math.isqrt(hi))
    mu = conjlab.mobius._mobius_block(lo, hi, base)

    def trial(n):
        sign = 1
        for p in base:
            if p * p > n:
                break
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
        return -sign if n > 1 else sign

    assert mu.dtype == np.int8
    assert mu.tolist() == [trial(n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_streamed_growth_equals_growth_of_the_table(limit):
    series = mertens(limit)
    for eps in (0.0, 0.01, 0.37):
        assert conjlab.mobius._growth_stream(limit, eps) == growth_statistic(series, eps)


@pytest.mark.parametrize("limit,segment_size", [(20_003, 7), (20_003, 4099), (200_003, 2**16 + 3)])
def test_streamed_growth_is_segment_invariant(limit, segment_size):
    ref = growth_statistic(mertens(limit), 0.01)
    assert conjlab.mobius._growth_stream(limit, 0.01, segment_size) == ref


def test_streamed_growth_holds_no_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("built the Mertens table")

    monkeypatch.setattr(conjlab.mobius, "mertens", no_table)
    r = conjlab.mobius._growth_stream(10_000, 0.0)
    assert r == GrowthReport(epsilon=0.0, sup_statistic=2 / math.sqrt(5), argmax_n=5)


def test_growth_rejects_epsilon_whose_supremum_is_past_float_range():
    # 3^(1/2 + 1000) overflows, so the supremum at n = 3 underflows to 0
    with pytest.raises(ValueError, match="^epsilon 1000.0 too large"):
        growth_statistic(mertens(100), 1000.0)
    with pytest.raises(ValueError, match="^epsilon 1000.0 too large"):
        conjlab.mobius._growth_stream(100, 1000.0)


@pytest.mark.parametrize("epsilon", [float("nan"), -0.01, float("-inf")])
def test_growth_rejects_nan_and_negative_epsilon(epsilon):
    with pytest.raises(ValueError, match="^epsilon must be non-negative$"):
        growth_statistic(mertens(100), epsilon)
    with pytest.raises(ValueError, match="^epsilon must be non-negative$"):
        conjlab.mobius._growth_stream(100, epsilon)


def test_philox_bits_do_not_depend_on_the_split():
    n = 10**4 + 3
    whole = conjlab.mobius.substream(11, 5).bit_generator.random_raw(n)
    for sizes in ([1 << 10] * (n >> 10) + [n % (1 << 10)], [1, 3, 4097, 7, n - 4108]):
        gen = conjlab.mobius.substream(11, 5).bit_generator
        parts = [gen.random_raw(s) for s in sizes]
        assert np.array_equal(np.concatenate(parts), whole)


def _every_step_walk(words, length):
    # bit i of word j is step 64j + i, by shifts rather than a byte view;
    # every j >= 2 folded at once, no word skipped
    w = np.array(words, dtype=np.uint64)
    bits = (w[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    walk = (bits.ravel()[:length].astype(np.int64) * 2 - 1).cumsum()
    return float(np.max(np.abs(walk[1:]) / np.sqrt(np.arange(2, length + 1)))), int(walk[-1])


def _oracle_walk(seed, index, length):
    return _every_step_walk(stream_words(seed, index, -(-length // 64)), length)


@pytest.mark.parametrize("length", [2, 3, 63, 64, 65, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1])
def test_walk_statistic_does_not_depend_on_the_block(length):
    for seed, index in ((7, 0), (7, 1), (7, 2), (401, 19), (2**63, 2**40)):
        ref = _oracle_walk(seed, index, length)
        for block in (1, 2, 7, 1000, 2**13):
            assert conjlab.mobius._walk_statistic(seed, index, length, block) == ref


def test_walk_statistic_equals_every_step_fold_at_the_bench_length():
    for index in range(20):
        got = conjlab.mobius._walk_statistic(401, index, 607926)
        assert got == _oracle_walk(401, index, 607926)


class _Words:
    """Stands in for ``substream``: serves fixed words through ``random_raw``."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        out, self.words = self.words[:n].copy(), self.words[n:]
        return out


def _pack(steps):
    # +-1 steps to words, step 64j + i as bit i of word j
    bits = [(s + 1) // 2 for s in steps] + [0] * (-len(steps) % 64)
    return [sum(b << i for i, b in enumerate(bits[j : j + 64])) for j in range(0, len(bits), 64)]


def _late_sup_steps():
    # W wobbles between 1 and 0, then climbs 300 steps and falls 20 inside
    # the last words: the sup sits inside a word, past every earlier block
    return [1, -1] * 2**15 + [1] * 300 + [-1] * 20 + [1, -1] * 37


def _first_step_sup_steps():
    # straight up for 4 words, one more step up, then down: the sup sits on
    # the first step of word 4, where the word's bound (|a| + |b| + s) / 2
    # is tight, and only just above the end of word 3
    return [1] * 257 + [-1] * 63 + [1, -1] * 100


def _tie_steps():
    # |W(j)| / sqrt(j) = 1 exactly at j = 4, 16, ..., 4096 (W = 2, -4, 8, ...)
    # and below 1 elsewhere: wobble at W, then run straight to the next target
    steps, w, j = [1, -1, 1, 1], 2, 4
    for k, target in [(16, -4), (64, 8), (256, -16), (1024, 32), (4096, -64)]:
        run = abs(target - w)
        toward_zero = -1 if w > 0 else 1
        steps += [toward_zero, -toward_zero] * ((k - j - run) // 2)
        steps += [1 if target > w else -1] * run
        w, j = target, k
    return steps + [1, -1] * 450


@pytest.mark.parametrize(
    "steps",
    [_late_sup_steps(), _first_step_sup_steps(), _tie_steps()],
    ids=["late-sup", "first-step-sup", "ties"],
)
@pytest.mark.parametrize("block", [1, 3, 2**13])
def test_walk_statistic_keeps_a_late_sup_and_exact_ties(steps, block, monkeypatch):
    words = _pack(steps)
    walk = np.cumsum(steps)
    ref = (float(np.max(np.abs(walk[1:]) / np.sqrt(np.arange(2, walk.size + 1)))), int(walk[-1]))
    assert _every_step_walk(words, len(steps)) == ref
    monkeypatch.setattr(conjlab.mobius, "substream", lambda seed, index: _Words(words))
    assert conjlab.mobius._walk_statistic(0, 0, len(steps), block) == ref


def test_late_sup_and_ties_are_what_they_say():
    late = np.cumsum(_late_sup_steps())
    stats = np.abs(late[1:]) / np.sqrt(np.arange(2, late.size + 1))
    assert int(np.argmax(stats)) + 2 == 2**16 + 300
    assert (2**16 + 300) % 64 and late.size % 64  # inside a word; a masked last word
    peak = np.cumsum(_first_step_sup_steps())
    assert int(np.argmax(peak[1:] / np.sqrt(np.arange(2, peak.size + 1)))) + 2 == 4 * 64 + 1
    ties = np.cumsum(_tie_steps())
    stats = np.abs(ties[1:]) / np.sqrt(np.arange(2, ties.size + 1))
    assert stats.max() == 1.0
    assert (np.flatnonzero(stats == 1.0) + 2).tolist() == [4, 16, 64, 256, 1024, 4096]


def test_skipping_words_changes_no_walk_statistic(monkeypatch):
    # the words folded are a few of the 9499; the result is the every-step one
    folded = []
    fold = conjlab.mobius._fold_growth

    def counting(blocks, limit, epsilon):
        blocks = list(blocks)
        folded.append(sum(-(-sums.size // 64) for _, sums in blocks))
        return fold(iter(blocks), limit, epsilon)

    monkeypatch.setattr(conjlab.mobius, "_fold_growth", counting)
    for index in range(20):
        got = conjlab.mobius._walk_statistic(401, index, 607926)
        assert got == _oracle_walk(401, index, 607926)
    assert len(folded) == 20
    assert 0 < min(folded) and max(folded) < 9499 // 50


def test_popcount_counts_every_bit():
    words = [0, 1, 2**63, 2**64 - 1, 0x5555555555555555, 0xF0F0F0F0F0F0F0F0]
    words += stream_words(3, 1, 200)
    got = conjlab.mobius._popcount(np.array(words, dtype=np.uint64))
    assert got.dtype == np.int64
    assert got.tolist() == [bin(w).count("1") for w in words]


# --- the signed-product sieve, the block bounds ----------------------------

_WHEEL = 44100  # 2^2 3^2 5^2 7^2, the period of the 2, 3, 5, 7 pattern


@pytest.mark.parametrize(
    "k,m", [(1, -1), (2, 1), (3, 2), (4, -23), (5, -48), (6, 212), (7, 1037)]
)
def test_mertens_at_powers_of_ten(k, m):
    # OEIS A084237
    assert mertens(10**k).partial_sums[10**k] == m


def test_mertens_at_powers_of_ten_through_the_cli():
    at = ",".join(str(10**k) for k in range(1, 8))
    r = subprocess.run(
        [sys.executable, "-m", "conjlab.cli", "mertens", "series", "--limit", str(10**7), "--at", at],
        capture_output=True, text=True, timeout=300,
    )
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == [
        "10,-1", "100,1", "1000,2", "10000,-23", "100000,-48", "1000000,212", "10000000,1037"
    ]


@pytest.mark.parametrize("limit,count", [(10**4, 6083), (10**6, 607926)])
def test_squarefree_counts(limit, count):
    assert mobius_sieve(limit).squarefree_count() == count


@pytest.fixture(scope="module")
def divided_wheel():
    return _divide_sieve(7 * _WHEEL)


@pytest.mark.parametrize("size", [7, _WHEEL - 1, _WHEEL + 1])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_block_at_the_wheel_period_matches_divide_sieve(k, size, divided_wheel):
    for lo in (_WHEEL * k - 1, _WHEEL * k, _WHEEL * k + 1):
        hi = lo + size - 1
        base = conjlab.mobius._base_primes(math.isqrt(hi))
        assert np.array_equal(conjlab.mobius._mobius_block(lo, hi, base), divided_wheel[lo : hi + 1])


@pytest.mark.parametrize("segment_size", [1, 2, 3, 7])
def test_small_limits_match_divide_sieve(segment_size):
    # below 49 the pattern of 2, 3, 5, 7 marks primes above sqrt(limit)
    for limit in range(1, 61):
        assert np.array_equal(mobius_sieve(limit, segment_size).values, _divide_sieve(limit))


def _growth_reference(sums, epsilon):
    # sums[i] = M(i + 1); every n >= 2 at once, no block skipped
    if sums.size < 2:
        return GrowthReport(epsilon=epsilon, sup_statistic=0.0, argmax_n=0)
    ns = np.arange(2, sums.size + 1, dtype=np.float64)
    stats = np.abs(sums[1:]).astype(np.float64) / ns ** (0.5 + epsilon)
    i = int(np.argmax(stats))
    return GrowthReport(epsilon=epsilon, sup_statistic=float(stats[i]), argmax_n=i + 2)


@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_block_bound_changes_no_growth_report(limit, monkeypatch):
    scanned = []
    best = conjlab.mobius._block_best

    def counting(lo, sums, expo):
        scanned.append(lo)
        return best(lo, sums, expo)

    monkeypatch.setattr(conjlab.mobius, "_block_best", counting)
    series = mertens(limit)
    with np.errstate(over="ignore"):  # n^inf
        for eps in (0.0, 1e-12, 0.01, 0.37, 2.0, float("inf")):
            ref = _growth_reference(series.partial_sums[1:], eps)
            scanned.clear()
            assert conjlab.mobius._growth_stream(limit, eps) == ref
            # 2 / sqrt(5) at n = 5 bounds every later block of 2^16 away;
            # at eps = inf every statistic is 0 and no block is skipped
            assert len(scanned) == (1 if eps < float("inf") else -(-limit // 2**16))
            assert growth_statistic(series, eps) == ref


@pytest.mark.parametrize("block", [8, 1000, 2**16])
def test_block_bound_keeps_late_maxima_and_the_first_tie(block):
    # a +-1 walk in place of M, whose sup lies past its first blocks; exact
    # ties |M(n)| / sqrt(n) = 1 at n = 4, 16, 64, ...; and a sup at the
    # start of a block that the block's last n would bound away.  The walk
    # takes raw Philox bits for n <= 2^16 and steps up after: there
    # |W(n)| / sqrt(n) <= sqrt(n) <= 256, while W(300000) >= 300000 - 2^17
    # gives more than 308, so the sup lies past 2^16 whatever the bits.
    steps = np.ones(300_000, dtype=np.int64)
    steps[: 2**16] = np.array(stream_bits(19, 0, 2**16)) * 2 - 1
    walk = np.cumsum(steps)
    ties = np.zeros(5000, dtype=np.int64)
    ties[[3, 15, 63, 255, 1023, 4095]] = [2, -4, 8, -16, 32, -64]
    spike = np.zeros(200_000, dtype=np.int64)
    spike[[4, 2**17]] = [-2, 324]
    assert _growth_reference(walk, 0.0).argmax_n > 2**16
    assert _growth_reference(ties, 0.0).argmax_n == 4
    assert _growth_reference(spike, 0.0).argmax_n == 2**17 + 1
    for sums in (walk, ties, spike):
        blocks = [(lo, sums[lo - 1 : lo - 1 + block]) for lo in range(1, sums.size + 1, block)]
        for eps in (0.0, 0.01, 2.0):
            got = conjlab.mobius._fold_growth(blocks, sums.size, eps)
            assert got == _growth_reference(sums, eps)


def test_importing_the_cli_builds_no_wheel():
    code = "import conjlab.cli, conjlab.mobius as m; assert m._wheel.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
