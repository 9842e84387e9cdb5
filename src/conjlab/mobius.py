"""Segmented Mobius sieve, Mertens partial sums, and a random-walk yardstick.

mu(n) is computed by trial marking with the primes p up to sqrt(limit):
one int32 array takes ``*= -p`` on the multiples of p and 0 on those of
p^2, so it holds the signed product of the distinct base primes of n.
2, 3, 5 and 7 come from an int16 pattern of period 44100, built on first
use and copied into each segment.
No integer is divided: n has one more prime factor, above sqrt(limit),
exactly when |product| is still below n, which costs one more sign
flip, taken in place, 2^16 n at a time, with no boolean temporaries.
|product| <= n, so int32 holds it up to the largest accepted limit,
2^31 - 1.  A segment thus holds 5 bytes per n: the int32 product and
the int8 result.

Segments keep the working set small, and one loop carries the running
M(n) across them in blocks of 2^16, dropping each segment before the
next is sieved.  ``mertens`` stores what that loop yields in a table of
4 bytes per n, and is the only path that holds one; the growth statistic
sup |M(n)| / n^(1/2+eps) over 2 <= n <= limit (``mertens growth``) is
folded into the same loop block by block, so its memory does not grow
with the limit.  Boundedness of that statistic for every eps > 0 is
equivalent to the Riemann hypothesis; comparing it against the same
statistic for genuine +-1 random walks of matching length shows how
unusually tame M is.  ``random_walk_compare`` runs the same fold, and
takes that length, the squarefree count, from ``mertens(isqrt(limit))``.
Step 64j + i of a walk is +1 when bit i of raw Philox word j is set and
-1 otherwise (see ``rng``), so numpy's bit count per word gives W at
every 64th step.  Those word ends bound the sup from below, the ends of
each word bound its own steps from above, and only the few words that
could reach the sup are expanded to their steps and go through the same
fold as M.  The fold skips a block whose bound max |value| /
lo^(1/2+eps) cannot beat the best so far.
"""

import functools
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .rng import _check_seed, _check_workers, _draws, substream

__all__ = [
    "MobiusTable",
    "MertensSeries",
    "GrowthReport",
    "WalkComparison",
    "mobius_sieve",
    "mobius_segments",
    "mertens",
    "growth_statistic",
    "random_walk_compare",
]

DEFAULT_SEGMENT_SIZE = 1 << 20
_BLOCK = 1 << 16  # n per Mertens block
_WORDS = 1 << 13  # Philox words per walk block, 2^19 steps
_LIMIT_MAX = 2**31 - 1
_WHEEL = 44100  # 2^2 3^2 5^2 7^2


@dataclass
class MobiusTable:
    limit: int
    values: np.ndarray  # int8; values[n] = mu(n), values[0] unused and 0

    def squarefree_count(self) -> int:
        return int(np.count_nonzero(self.values[1:]))


@dataclass
class MertensSeries:
    limit: int
    partial_sums: np.ndarray  # int32; partial_sums[n] = M(n), [0] = 0
    min: int
    max: int


@dataclass(frozen=True)
class GrowthReport:
    epsilon: float
    sup_statistic: float
    argmax_n: int


@dataclass(frozen=True)
class WalkComparison:
    n_limit: int
    trials: int
    walk_length: int
    mertens_statistic: float
    walk_mean_statistic: float
    percentile_rank: float
    mean_final_position: float
    final_position_sem: float


def _base_primes(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def _validate_limit(limit: int) -> None:
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if limit > _LIMIT_MAX:
        raise ValueError(f"limit must not exceed {_LIMIT_MAX}")


@functools.cache
def _wheel() -> np.ndarray:
    """The signed product of 2, 3, 5 and 7 over two periods of 2^2 3^2 5^2 7^2,
    as int16: it is at most 210 in absolute value."""
    prod = np.ones(2 * _WHEEL, dtype=np.int16)
    for p in (2, 3, 5, 7):
        prod[::p] *= -p
        prod[:: p * p] = 0
    prod.setflags(write=False)
    return prod


def _mobius_block(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """mu(lo..hi) as int8, marked by ``base``, which holds every prime <= sqrt(hi)."""
    size = hi - lo + 1
    # (-1)^k * the k distinct primes of n among 2, 3, 5, 7 and base, or 0
    prod = np.empty(size, dtype=np.int32)
    wheel = _wheel()[lo % _WHEEL :]
    for off in range(0, size, _WHEEL):
        prod[off : off + _WHEEL] = wheel[: min(_WHEEL, size - off)]
    for p in base:
        if p > 7:
            prod[(-lo) % p :: p] *= -p
            p2 = p * p
            if p2 <= hi:
                prod[(-lo) % p2 :: p2] = 0
    mu = np.empty(size, dtype=np.int8)
    np.sign(prod, out=mu, casting="unsafe")
    np.abs(prod, out=prod)
    # |prod| < n: one prime factor above sqrt(hi), so flip (or mu(n) is 0).
    # 2^16 n at a time, into prod itself: the segment holds prod and mu only
    for off in range(0, size, _BLOCK):
        flip = prod[off : off + _BLOCK]
        n = lo + off
        np.less(flip, np.arange(n, n + flip.size, dtype=np.int32), out=flip)
        flip *= -2
        flip += 1
        part = mu[off : off + _BLOCK]
        np.multiply(part, flip, out=part, casting="unsafe")
    return mu


def mobius_segments(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield (lo, values) blocks with values[i] = mu(lo + i), covering 1..limit."""
    _validate_limit(limit)
    if segment_size < 1:
        raise ValueError("segment_size must be at least 1")
    base = _base_primes(isqrt(limit))
    for lo in range(1, limit + 1, segment_size):
        yield lo, _mobius_block(lo, min(lo + segment_size - 1, limit), base)


def mobius_sieve(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> MobiusTable:
    """Table of mu(1..limit)."""
    _validate_limit(limit)
    values = np.zeros(limit + 1, dtype=np.int8)
    for lo, mu in mobius_segments(limit, segment_size):
        values[lo : lo + mu.size] = mu
    return MobiusTable(limit=limit, values=values)


def _mertens_blocks(limit: int, segment_size: int):
    """Yield (lo, sums) with sums[i] = M(lo + i) as int64, covering 1..limit
    in blocks of at most 2^16, from one pass of the sieve."""
    running = 0
    for lo, mu in mobius_segments(limit, segment_size):
        for off in range(0, mu.size, _BLOCK):
            sums = mu[off : off + _BLOCK].cumsum(dtype=np.int64)
            sums += running
            running = int(sums[-1])
            yield lo + off, sums
        del mu  # before the sieve builds the next segment


def mertens(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> MertensSeries:
    """Partial sums M(n) = sum_{j<=n} mu(j) for n = 0..limit, streamed."""
    _validate_limit(limit)
    sums = np.zeros(limit + 1, dtype=np.int32)
    for lo, block in _mertens_blocks(limit, segment_size):
        sums[lo : lo + block.size] = block
    body = sums[1:]
    return MertensSeries(
        limit=limit,
        partial_sums=sums,
        min=int(body.min()),
        max=int(body.max()),
    )


def _block_best(lo: int, sums: np.ndarray, expo: float) -> tuple[float, int]:
    """max over n >= 2 of |M(n)| / n^expo on a block sums[i] = M(lo + i), with
    the smallest n attaining it; (0.0, 0) if the block holds no such n."""
    if lo < 2:
        sums = sums[2 - lo :]
        lo = 2
    if not sums.size:
        return 0.0, 0
    stats = np.abs(sums).astype(np.float64)
    ns = np.arange(lo, lo + sums.size, dtype=np.float64)
    with np.errstate(over="ignore"):  # n^expo = inf: the term is far below n = 3's
        ns **= expo  # the operator, so numpy takes x ** 0.5 through sqrt
    stats /= ns
    i = int(np.argmax(stats))
    return float(stats[i]), lo + i


def _fold_growth(blocks, limit: int, epsilon: float) -> GrowthReport:
    """The growth report of 1..limit from its Mertens blocks (lo, sums)."""
    if not epsilon >= 0.0:  # also rejects NaN
        raise ValueError("epsilon must be non-negative")
    expo = 0.5 + epsilon
    try:
        3.0**expo
    except OverflowError:  # finite epsilon only: at inf every term is exactly 0
        raise ValueError(
            f"epsilon {epsilon!r} too large: 3^(1/2 + epsilon) overflows a float, "
            "so the supremum, at n = 3, cannot be represented"
        ) from None
    best = 0.0
    best_n = 0
    for lo, sums in blocks:
        # the margin covers a few ulps of pow; lo^-expo cannot overflow
        if max(sums.max(), -sums.min()) * lo**-expo * (1 + 2**-40) < best:
            continue
        value, n = _block_best(lo, sums, expo)
        if value > best:
            best, best_n = value, n
    if best_n == 0 and limit >= 2:
        best_n = 2  # all-zero prefix; report the first admissible n
    return GrowthReport(epsilon=epsilon, sup_statistic=best, argmax_n=best_n)


def growth_statistic(series: MertensSeries, epsilon: float) -> GrowthReport:
    """sup over 2 <= n <= limit of |M(n)| / n^(1/2 + epsilon), with the
    smallest n attaining it.  n = 1 is excluded (|M(1)| = 1 trivially)."""
    m = series.partial_sums
    blocks = ((lo, m[lo : lo + _BLOCK]) for lo in range(2, series.limit + 1, _BLOCK))
    return _fold_growth(blocks, series.limit, epsilon)


def _growth_stream(
    limit: int, epsilon: float, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> GrowthReport:
    """``growth_statistic(mertens(limit), epsilon)``, equal to it, without the
    table: memory stays at one segment whatever the limit."""
    _validate_limit(limit)
    return _fold_growth(_mertens_blocks(limit, segment_size), limit, epsilon)


def _walk_statistic(seed: int, index: int, length: int, block: int = _WORDS) -> tuple[float, int]:
    """(sup over 2 <= j <= length of |W(j)| / sqrt(j), W(length)) for the +-1
    walk W on stream (seed, index), drawn ``block`` raw words at a time.

    A word's popcount gives W at its end; the best such end with j >= 2,
    carried across blocks, is a lower bound on the sup.  A word from W(a)
    at j_first - 1 to W(b) in s steps stays within (|a| + |b| + s) / 2 of
    0, so |W(j)| / sqrt(j) on it is at most that over sqrt(max(j_first, 2)).
    Only the words whose bound, widened by 2^-40 for rounding, reaches the
    lower bound are expanded to steps and folded; each run of consecutive
    ones is one fold block.  The word holding the best end is always among
    them, so every skipped word lies strictly below the sup.
    """
    bitgen = substream(seed, index).bit_generator
    count = -(-length // 64)
    pos = 0  # W at the end of the words drawn so far
    low = 0.0

    def runs():
        nonlocal pos, low
        for first in range(0, count, block):
            words = bitgen.random_raw(min(block, count - first))
            n = words.size
            ends = np.arange(64 * first + 64, 64 * (first + n) + 1, 64)  # j at each word's end
            if first + n == count:
                ends[-1] = length
                words[-1] &= np.uint64((1 << (length - 64 * count + 64)) - 1)
            span = np.diff(ends, prepend=64 * first)
            w_end = np.cumsum(2 * np.bitwise_count(words).astype(np.int64) - span) + pos
            w_start = np.concatenate(([pos], w_end[:-1]))
            pos = int(w_end[-1])
            at_end = np.abs(w_end) / np.sqrt(ends)
            low = max(low, float(at_end[ends >= 2].max(initial=0.0)))
            high = (np.abs(w_start) + np.abs(w_end) + span) / 2
            high /= np.sqrt(np.maximum(ends - span + 1, 2))  # j at each word's first step
            keep = np.flatnonzero(high * (1 + 2**-40) >= low)
            w = _draws(words[keep]).reshape(keep.size, 64).astype(np.int64)
            w *= 2
            w -= 1
            np.cumsum(w, axis=1, out=w)
            w += w_start[keep, None]
            starts = np.flatnonzero(np.diff(keep, prepend=-2) != 1).tolist()
            for r0, r1 in zip(starts, [*starts[1:], keep.size]):
                lo = 64 * (first + int(keep[r0])) + 1  # this run holds W(lo), W(lo + 1), ...
                yield lo, w[r0:r1].ravel()[: length + 1 - lo]

    return _fold_growth(runs(), length, 0.0).sup_statistic, pos


def random_walk_compare(
    limit: int,
    trials: int,
    seed: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> WalkComparison:
    """Rank the Mertens growth statistic (eps = 0) among +-1 random walks.

    Each walk has one step per squarefree n <= limit, mirroring the
    number of nonzero Mobius terms rather than the raw range, with the
    same sup |W(j)| / sqrt(j) statistic over 2 <= j.  The Mertens
    statistic comes from the streaming fold of ``mertens growth``, and
    the count is Q(x) = sum_{d <= sqrt(x)} mu(d) floor(x / d^2), with
    mu(d) = M(d) - M(d - 1) from ``mertens(isqrt(x))``: no table of M
    longer than sqrt(x) + 1 is built.  percentile_rank is
    the fraction of walks whose statistic is <= the Mertens one; the mean
    final position and its standard error are a sanity check that the
    walks themselves are unbiased.

    Walk i draws raw words from stream (seed, i), 2^13 words at a time,
    and the walks run serially.  ``workers`` is accepted and checked, but
    not used: a walk of 607,926 steps costs about 0.5 ms, and the growth
    statistic and 20 walks of (10**6, 20, 3) took 15.7 ms serially
    against 17.5 ms on 2 threads (medians of 24 alternating runs, 2-vCPU
    Xeon, numpy 2.4.6).
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_seed(seed)
    _check_workers(workers)
    m_stat = _growth_stream(limit, 0.0, segment_size)
    root = isqrt(limit)  # the walk length Q(limit)
    mu = np.diff(mertens(root, segment_size).partial_sums).astype(np.int64)
    d = np.arange(1, root + 1, dtype=np.int64)
    length = int((mu * (limit // (d * d))).sum())
    results = [_walk_statistic(seed, i, length) for i in range(trials)]
    stats = np.array([r[0] for r in results])
    finals = np.array([r[1] for r in results], dtype=np.float64)
    sem = float(finals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return WalkComparison(
        n_limit=limit,
        trials=trials,
        walk_length=length,
        mertens_statistic=m_stat.sup_statistic,
        walk_mean_statistic=float(stats.mean()),
        percentile_rank=float((stats <= m_stat.sup_statistic).mean()),
        mean_final_position=float(finals.mean()),
        final_position_sem=sem,
    )
