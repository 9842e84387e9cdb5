"""Accelerated Collatz map and budgeted range verification.

The map acts on positive integers by

    T(n) = (3n + 1) / 2   if n is odd,
    T(n) = n / 2          if n is even,

i.e. the odd step folds the division by two into the update, so every
application halves at least once.  ``verify_range`` sweeps an integer
interval and classifies each start as verified (its orbit reached 1, or
fell below an optional pre-verified floor) or as a candidate that
exhausted the step budget without doing so.  Budget exhaustion is never
evidence of divergence; candidates are reported for re-runs with a
larger budget.

The sweep is exact integer arithmetic throughout.  Starts that fit in
64 bits are advanced in vectorized numpy blocks; any iterate that could
overflow ``3*v + 1`` in uint64 is promoted to a plain Python integer
continuation mid-flight, so results are identical to the pure-Python
path bit for bit.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from .rng import _pmap

__all__ = [
    "step",
    "iterate",
    "trajectory",
    "total_stopping_time",
    "verify_range",
    "Trajectory",
    "StoppingRecord",
    "CandidateRecord",
    "VerificationReport",
]

DEFAULT_CHUNK_SIZE = 1 << 16

# Largest v for which 3*v + 1 cannot wrap a uint64.
_U64_GUARD = (2**64 - 2) // 3
# Largest start admitted to the numpy path at all.
_U64_MAX_START = 2**63


def step(n: int) -> int:
    """One application of the accelerated map."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return (3 * n + 1) >> 1 if n & 1 else n >> 1


def iterate(n: int, k: int) -> int:
    """k-fold composition T^k(n)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    v = n
    for _ in range(k):
        v = step(v)
    return v


@dataclass(frozen=True)
class Trajectory:
    start: int
    iterates: tuple[int, ...]
    parities: tuple[int, ...]
    truncated: bool


@dataclass(frozen=True)
class StoppingRecord:
    n: int
    total_stopping_time: int
    max_excursion: int


@dataclass(frozen=True)
class CandidateRecord:
    n: int
    steps_taken: int
    last_iterate: int


@dataclass
class VerificationReport:
    lo: int
    hi: int
    verified_count: int
    counterexample_candidates: list[CandidateRecord]
    max_stopping_time_seen: int
    wall_time: float
    chunk_count: int

    def to_json(self) -> str:
        """Serialized verification content.

        Excludes ``wall_time`` and ``chunk_count``: both are run metadata
        that vary with machine load and block layout, and the serialized
        report is required to be identical however the range was split.
        """
        return json.dumps(
            {
                "lo": self.lo,
                "hi": self.hi,
                "verified_count": self.verified_count,
                "max_stopping_time_seen": self.max_stopping_time_seen,
                "counterexample_candidates": [
                    {
                        "n": c.n,
                        "steps_taken": c.steps_taken,
                        "last_iterate": c.last_iterate,
                    }
                    for c in self.counterexample_candidates
                ],
            }
        )


def trajectory(n: int, max_steps: int) -> Trajectory:
    """Orbit of ``n`` under T, stopping at 1 or after ``max_steps`` applications."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    its = [n]
    while its[-1] != 1 and len(its) - 1 < max_steps:
        its.append(step(its[-1]))
    return Trajectory(
        start=n,
        iterates=tuple(its),
        parities=tuple(v & 1 for v in its),
        truncated=its[-1] != 1,
    )


def total_stopping_time(n: int, budget: int) -> StoppingRecord | None:
    """Steps until the orbit of ``n`` first hits 1, or None if over budget.

    ``max_excursion`` is the largest iterate seen, the start included.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    v = n
    mx = n
    k = 0
    while v != 1 and k < budget:
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        k += 1
        if v > mx:
            mx = v
    if v != 1:
        return None
    return StoppingRecord(n=n, total_stopping_time=k, max_excursion=mx)


def _follow_py(v: int, budget: int, exit_floor: int) -> tuple[bool, int, int]:
    """Advance one start with Python integers.

    Returns (exited, steps_used, last_value).  The exit test runs before
    each step and once more after the final one, so a start that lands
    below the floor on exactly the last allowed step still counts.
    """
    for k in range(budget + 1):
        if v < exit_floor:
            return True, k, v
        if k == budget:
            break
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
    return False, budget, v


def _sweep_chunk(
    lo: int, hi: int, budget: int, exit_floor: int
) -> tuple[int, int, list[CandidateRecord]]:
    """Classify every start in [lo, hi].

    Returns (verified_count, max_steps_among_verified, candidates).
    """
    size = hi - lo + 1

    if hi >= _U64_MAX_START:
        verified = 0
        max_steps = -1
        cands = []
        for n in range(lo, hi + 1):
            exited, k, last = _follow_py(n, budget, exit_floor)
            if exited:
                verified += 1
                if k > max_steps:
                    max_steps = k
            else:
                cands.append(CandidateRecord(n=n, steps_taken=k, last_iterate=last))
        return verified, max_steps, cands

    v = np.arange(lo, hi + 1, dtype=np.uint64)
    pos = np.arange(size, dtype=np.int64)
    steps_out = np.full(size, -1, dtype=np.int64)
    # (position, value, steps so far) for iterates promoted out of uint64 range
    promoted: list[tuple[int, int, int]] = []
    cand_by_pos: dict[int, tuple[int, int]] = {}

    ef = np.uint64(exit_floor)
    one = np.uint64(1)
    three = np.uint64(3)
    guard = np.uint64(_U64_GUARD)

    k = 0
    while True:
        done = v < ef
        if done.any():
            steps_out[pos[done]] = k
            keep = ~done
            v = v[keep]
            pos = pos[keep]
        if v.size == 0 or k == budget:
            break
        big = v > guard
        if big.any():
            for p, val in zip(pos[big], v[big]):
                promoted.append((int(p), int(val), k))
            keep = ~big
            v = v[keep]
            pos = pos[keep]
            if v.size == 0:
                break
        odd = (v & one).astype(bool)
        v = np.where(odd, three * v + one, v) >> one
        k += 1

    for p, val in zip(pos, v):
        cand_by_pos[int(p)] = (budget, int(val))

    for p, val, k0 in promoted:
        exited, rel, last = _follow_py(val, budget - k0, exit_floor)
        if exited:
            steps_out[p] = k0 + rel
        else:
            cand_by_pos[p] = (budget, last)

    verified_steps = steps_out[steps_out >= 0]
    verified = int(verified_steps.size)
    max_steps = int(verified_steps.max()) if verified else -1
    cands = [
        CandidateRecord(n=lo + p, steps_taken=s, last_iterate=last)
        for p, (s, last) in sorted(cand_by_pos.items())
    ]
    return verified, max_steps, cands


def verify_range(
    lo: int,
    hi: int,
    budget: int,
    floor: int | None = None,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> VerificationReport:
    """Sweep [lo, hi] and report verified starts and budget-exhausted candidates.

    A start is verified once an iterate falls below ``max(2, floor or 2)``,
    i.e. reaches 1, or drops under a floor below which every start is
    already known to converge.  The floor is an optimization only; passing
    ``floor=lo`` is sound when [1, lo) has been verified previously.

    The range is cut into fixed ``chunk_size`` blocks whose boundaries do
    not depend on ``workers``, and per-chunk results are merged in range
    order, so the report content is identical for any worker count.
    """
    if lo < 1:
        raise ValueError("lo must be a positive integer")
    if hi < lo:
        raise ValueError("range is empty: hi < lo")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if floor is not None and floor < 1:
        raise ValueError("floor must be a positive integer when given")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")

    exit_floor = 2 if floor is None else max(2, floor)
    t0 = time.perf_counter()

    chunks = [(a, min(a + chunk_size - 1, hi)) for a in range(lo, hi + 1, chunk_size)]

    results = _pmap(
        lambda ab: _sweep_chunk(ab[0], ab[1], budget, exit_floor), chunks, workers
    )

    verified = 0
    max_steps = -1
    cands: list[CandidateRecord] = []
    for vc, ms, cs in results:
        verified += vc
        if ms > max_steps:
            max_steps = ms
        cands.extend(cs)

    return VerificationReport(
        lo=lo,
        hi=hi,
        verified_count=verified,
        counterexample_candidates=cands,
        max_stopping_time_seen=max(max_steps, 0),
        wall_time=time.perf_counter() - t0,
        chunk_count=len(chunks),
    )
