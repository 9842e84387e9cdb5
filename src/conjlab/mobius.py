"""Segmented Mobius sieve, Mertens partial sums, and a random-walk yardstick.

mu(n) is computed by trial marking with the primes up to sqrt(limit):
each prime flips the sign of its multiples and each prime square kills
its multiples; whatever cofactor survives all base primes is either 1 or
a single large prime, which costs one more sign flip.  Segments keep the
working set small, so Mertens sums stream in one pass.

The growth statistic sup |M(n)| / n^(1/2+eps) over 2 <= n <= limit is
the quantity whose boundedness (for every eps > 0) is equivalent to the
Riemann hypothesis; comparing it against the same statistic for genuine
+-1 random walks of matching length shows how unusually tame M is.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .rng import _check_workers, _pmap, substream

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
_LIMIT_MAX = 2**31 - 1


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
    if n < 2:
        return []
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


def mobius_segments(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield (lo, values) blocks with values[i] = mu(lo + i), covering 1..limit."""
    _validate_limit(limit)
    if segment_size < 1:
        raise ValueError("segment_size must be at least 1")
    base = _base_primes(isqrt(limit))
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size - 1, limit)
        mu = np.ones(hi - lo + 1, dtype=np.int8)
        rem = np.arange(lo, hi + 1, dtype=np.int64)
        for p in base:
            start = (-lo) % p
            mu[start::p] *= -1
            rem[start::p] //= p
            p2 = p * p
            if p2 <= hi:
                mu[(-lo) % p2 :: p2] = 0
        # a surviving cofactor is one prime above sqrt(limit): one more flip
        big = rem > 1
        mu[big] = -mu[big]
        yield lo, mu


def mobius_sieve(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> MobiusTable:
    """Table of mu(1..limit)."""
    values = np.zeros(limit + 1, dtype=np.int8)
    for lo, mu in mobius_segments(limit, segment_size):
        values[lo : lo + mu.size] = mu
    return MobiusTable(limit=limit, values=values)


def mertens(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> MertensSeries:
    """Partial sums M(n) = sum_{j<=n} mu(j) for n = 0..limit, streamed."""
    sums = np.zeros(limit + 1, dtype=np.int32)
    running = 0
    for lo, mu in mobius_segments(limit, segment_size):
        block = mu.cumsum(dtype=np.int64) + running
        sums[lo : lo + mu.size] = block
        running = int(block[-1])
    body = sums[1:]
    return MertensSeries(
        limit=limit,
        partial_sums=sums,
        min=int(body.min()),
        max=int(body.max()),
    )


def growth_statistic(series: MertensSeries, epsilon: float) -> GrowthReport:
    """sup over 2 <= n <= limit of |M(n)| / n^(1/2 + epsilon), with the
    smallest n attaining it.  n = 1 is excluded (|M(1)| = 1 trivially)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    expo = 0.5 + epsilon
    best = 0.0
    best_n = 0
    m = series.partial_sums
    block = 1 << 20
    for lo in range(2, series.limit + 1, block):
        hi = min(lo + block - 1, series.limit)
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        stats = np.abs(m[lo : hi + 1]).astype(np.float64) / ns**expo
        i = int(np.argmax(stats))
        if stats[i] > best:
            best = float(stats[i])
            best_n = lo + i
    if best_n == 0 and series.limit >= 2:
        best_n = 2  # all-zero prefix; report the first admissible n
    return GrowthReport(epsilon=epsilon, sup_statistic=best, argmax_n=best_n)


def _walk_statistic(args) -> tuple[float, int]:
    seed, index, length = args
    steps = substream(seed, index).integers(0, 2, size=length, dtype=np.int64) * 2 - 1
    w = steps.cumsum()
    js = np.arange(1, length + 1, dtype=np.float64)
    stat = float(np.max(np.abs(w[1:]) / np.sqrt(js[1:])))
    return stat, int(w[-1])


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
    same sup |W(j)| / sqrt(j) statistic over 2 <= j.  percentile_rank is
    the fraction of walks whose statistic is <= the Mertens one; the mean
    final position and its standard error are a sanity check that the
    walks themselves are unbiased.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_workers(workers)
    series = mertens(limit, segment_size)
    m_stat = growth_statistic(series, 0.0)
    # mu(n) = M(n) - M(n-1), so the squarefree n are where the series moves
    m = series.partial_sums
    length = int(np.count_nonzero(m[1:] != m[:-1]))
    tasks = [(seed, i, length) for i in range(trials)]
    results = _pmap(_walk_statistic, tasks, workers)
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
