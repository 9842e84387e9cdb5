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

The sweep never re-walks an orbit it has already finished.  Each start
n is followed only until it reaches the floor, or descends onto a
smaller start of the same sweep (a descent link); the first up-to-16
steps of most starts come in closed form from a table over the residues
mod 2^16, and about 97% of those residues descend within them.  The
starts are then resolved in ascending order: a start's total is its own
steps plus the total of the start it links to, so every reported count
is still the exact total stopping time (steps to the floor, when one is
given), and no start ever links to one that is not yet resolved.

The sweep is exact integer arithmetic throughout.  Starts that fit in
64 bits are advanced in vectorized numpy blocks; any iterate that could
overflow ``3*v + 1`` in uint64 is promoted to a plain Python integer
continuation mid-flight, so results are identical to the pure-Python
path bit for bit.
"""

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from .rng import _check_workers, _pmap

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
# Starts below _JUMP_LIMIT take their first up-to-16 steps in closed form
# from a residue mod 2^16.  T^j(n) + 1 <= (3/2)^j (n + 1), so for j <= 16
# the closed form fits in uint64 whenever n + 1 <= 2^80 / 3^16.
_JUMP_BITS = 16
_JUMP_MASK = (1 << _JUMP_BITS) - 1
_JUMP_LIMIT = 2**80 // 3**16
# Step counts saturate here; no orbit a sweep can follow takes 2^61 steps.
_CAP = 2**61
# Blocks this small continue in Python ints, cheaper than a numpy step.
_PY_TAIL = 64


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
    for k in range(budget):
        if v < exit_floor:
            return True, k, v
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
    return v < exit_floor, budget, v


def _descend_py(
    v: int, k: int, thr: int, lo: int, budget: int, exit_floor: int
) -> tuple[int | None, int, int]:
    """Continue a start from iterate ``v`` after ``k`` steps, in Python ints.

    ``thr`` is the start itself, or ``exit_floor`` once the orbit has
    dropped below the sweep.  Returns (steps, link, last) as ``_descend``
    records them, with steps None when the budget runs out first; ``last``
    is then the iterate after ``budget`` steps.  Only the first fall below
    the start is tested for a link; below ``lo`` the orbit is followed to
    the floor.
    """
    below, used, v = _follow_py(v, budget - k, thr)
    k += used
    if below and v >= exit_floor and v < lo:
        below, used, v = _follow_py(v, budget - k, exit_floor)
        k += used
    if not below:
        return None, -1, v
    return k, (-1 if v < exit_floor else v - lo), v


@functools.cache
def _residue_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form first descent of every residue r mod 2^16.

    For n = q * 2^16 + r the first j <= 16 steps follow r's parities, so
    T^j(n) = 3^a * 2^(16-j) * q + T^j(r) with a the odd steps among them.
    Per residue: j, the first step with 3^a < 2^j (16 if there is none),
    the coefficient 3^a * 2^(16-j), and T^j(r).  Every iterate before j
    exceeds n, because 3^a > 2^i there.  Built on first use.
    """
    r = np.arange(1 << _JUMP_BITS, dtype=np.int64)
    v = r.copy()
    odd_steps = np.zeros(r.size, dtype=np.int64)
    pow3 = 3 ** np.arange(_JUMP_BITS + 1)
    first = np.full(r.size, _JUMP_BITS, dtype=np.int64)
    coef = np.zeros(r.size, dtype=np.int64)
    t_r = np.zeros(r.size, dtype=np.int64)
    open_ = np.ones(r.size, dtype=bool)
    for i in range(1, _JUMP_BITS + 1):
        odd = v & 1
        v = (v + odd * (2 * v + 1)) >> 1
        odd_steps += odd
        # residues still open after the last step keep j = 16
        hit = open_ & (pow3[odd_steps] < 2**i) if i < _JUMP_BITS else open_
        first[hit] = i
        coef[hit] = pow3[odd_steps[hit]] << (_JUMP_BITS - i)
        t_r[hit] = v[hit]
        open_ &= ~hit
    table = first, coef.astype(np.uint64), t_r.astype(np.uint64)
    for column in table:
        column.setflags(write=False)  # one cached copy serves every sweep
    return table


def _cap(budget: int) -> int:
    """Saturated step count that marks a start over ``budget``."""
    return min(budget, _CAP - 1) + 1


def _descend(
    a: int, offs: np.ndarray, lo: int, budget: int, exit_floor: int, steps, link
) -> dict[int, int]:
    """Phase 1: follow each start a + offs[i] to a root, a link or the budget.

    A root is an iterate below ``exit_floor``.  A link is the first iterate
    v below the start n when it lies in [lo, n); an orbit that first falls
    below n under ``lo`` is followed on to a root.  Writes the steps taken
    to ``steps[i]`` and v - lo to ``link[i]`` (-1 for a root).  A start
    that exhausts the budget first gets ``steps[i] = _cap(budget)``, link
    -1, and its iterate after ``budget`` steps in the returned dict, keyed
    by i.  ``offs`` is ascending.  Below ``_JUMP_LIMIT`` the first up-to-16
    steps are one residue-table lookup; iterates that could overflow
    uint64, and the last few starts of a block, continue in Python ints.
    """
    cap = _cap(budget)
    last: dict[int, int] = {}
    tail: list[tuple[int, int, int, int]] = []  # (i, iterate, steps, threshold)
    if a + int(offs[-1]) >= _U64_MAX_START:
        tail = [(i, a + o, 0, max(a + o, exit_floor)) for i, o in enumerate(offs.tolist())]
    else:
        n = offs.astype(np.uint64) + np.uint64(a)
        # floors and link bounds above the uint64 range act as if infinite
        ef = np.uint64(min(exit_floor, _U64_MAX_START))
        lo_u = np.uint64(min(lo, _U64_MAX_START))
        thr = np.maximum(n, ef)
        v = n
        k0 = np.zeros(n.size, dtype=np.int64)
        if a < _JUMP_LIMIT:
            first, coef, t_r = _residue_table()
            r = n & np.uint64(_JUMP_MASK)
            j = first[r]
            jump = (n >= ef) & (n < np.uint64(_JUMP_LIMIT))
            if budget < _JUMP_BITS:
                jump &= j <= budget
            v = np.where(jump, coef[r] * (n >> np.uint64(_JUMP_BITS)) + t_r[r], n)
            k0 = np.where(jump, j, 0)
        state = [v, thr, k0, np.arange(n.size, dtype=np.int64)]
        guard = np.uint64(_U64_GUARD)
        k0_max = int(k0.max())
        k = 0
        while True:
            v, thr, k0, pos = state
            done = v < thr
            if done.any():
                d = np.flatnonzero(done)
                vd = v[d]
                root = vd < ef
                fin = root | (vd >= lo_u)
                f = d[fin]
                pf = pos[f]
                steps[pf] = k0[f] + k
                link[pf] = np.where(root[fin], -1, (vd[fin] - lo_u).astype(np.int64))
                # fell below the sweep: follow the orbit down to the floor
                thr[d[~fin]] = ef
                keep = np.ones(v.size, dtype=bool)
                keep[f] = False
                state = [x[keep] for x in state]
                v, thr, k0, pos = state
            if k + k0_max >= budget:
                out = k0 + k >= budget
                po = pos[out]
                steps[po] = cap
                link[po] = -1
                last.update(zip(po.tolist(), v[out].tolist()))
                state = [x[~out] for x in state]
                v, thr, k0, pos = state
            # near overflow, or too few left for numpy to pay: Python ints
            move = v > guard if v.size > _PY_TAIL else np.ones(v.size, dtype=bool)
            if move.any():
                tail.extend(
                    zip(pos[move].tolist(), v[move].tolist(), (k0[move] + k).tolist(),
                        thr[move].tolist())
                )
                state = [x[~move] for x in state]
                v = state[0]
            if v.size == 0:
                break
            odd = (v & np.uint64(1)).astype(bool)
            state[0] = np.where(odd, np.uint64(3) * v + np.uint64(1), v) >> np.uint64(1)
            k += 1

    for i, val, kk, t in tail:
        s, ln, val = _descend_py(val, kk, t, lo, budget, exit_floor)
        if s is None:
            steps[i], link[i] = cap, -1
            last[i] = val
        else:
            steps[i], link[i] = s, ln
    return last


def _resolve_chunk(
    a: int, b: int, lo: int, budget: int, exit_floor: int, steps, link
) -> tuple[int, int, list[CandidateRecord]]:
    """Phase 2: turn the steps of starts a..b into total stopping times.

    Every start before a must be resolved already.  A start's total is
    its own steps plus its link target's total; a total over the budget
    makes the start a candidate, whose last iterate is recomputed with
    links switched off.  Returns (verified_count,
    max_steps_among_verified, candidates).
    """
    cap = _cap(budget)
    s = slice(a - lo, b - lo + 1)
    total = steps[s].astype(np.int64)
    tgt = link[s].astype(np.int64)
    # links into this chunk wait until their target is resolved
    waiting = tgt >= a - lo
    earlier = np.flatnonzero(~waiting & (tgt >= 0))
    total[earlier] += steps[tgt[earlier]]
    np.minimum(total, cap, out=total)
    pending = np.flatnonzero(waiting)
    while pending.size:
        t = tgt[pending] - (a - lo)
        ready = ~waiting[t]
        idx = pending[ready]
        total[idx] = np.minimum(total[idx] + total[t[ready]], cap)
        waiting[idx] = False
        pending = pending[~ready]
    steps[s] = total

    over = np.flatnonzero(total == cap)
    cands = []
    if over.size:
        # no start of this chunk can link at or above b + 1
        out = np.empty(over.size, dtype=np.int64)
        last = _descend(a, over, b + 1, budget, exit_floor, out, out.copy())
        cands = [
            CandidateRecord(n=a + o, steps_taken=budget, last_iterate=last[i])
            for i, o in enumerate(over.tolist())
        ]
    verified = total.size - over.size
    max_steps = int(total[total < cap].max()) if verified else -1
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

    The sweep runs in two phases.  Phase 1 follows each start n only until
    it reaches the floor (a root) or an iterate in [lo, n) (a descent link
    to that smaller start), taking the first up-to-16 steps of most starts
    from a residue table mod 2^16.  Phase 2 walks the starts in ascending
    order and adds each link target's total to the start's own steps, so
    every reported step count is still the exact number of steps to the
    floor: the total stopping time when there is no floor.  A start whose
    total exceeds the budget is a candidate, and its last iterate is
    recomputed from the start.  Phase 1 holds two integer arrays over the
    whole range, 8 bytes per start (16 for very wide ranges or budgets).

    The range is cut into fixed ``chunk_size`` blocks whose boundaries do
    not depend on ``workers``; phase 1 maps the blocks over the workers and
    phase 2 merges them in range order, so the report content is identical
    for any worker count.
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
    _check_workers(workers)

    exit_floor = 2 if floor is None else max(2, floor)
    t0 = time.perf_counter()

    chunks = [(a, min(a + chunk_size - 1, hi)) for a in range(lo, hi + 1, chunk_size)]
    size = hi - lo + 1
    small = max(size, budget + 1) < 2**31
    steps = np.empty(size, dtype=np.int32 if small else np.int64)
    link = np.empty(size, dtype=steps.dtype)
    if lo < _JUMP_LIMIT:
        _residue_table()  # build once, before workers share it

    def phase1(ab: tuple[int, int]) -> None:
        a, b = ab
        s = slice(a - lo, b - lo + 1)
        _descend(a, np.arange(b - a + 1), lo, budget, exit_floor, steps[s], link[s])

    _pmap(phase1, chunks, workers)

    verified = 0
    max_steps = -1
    cands: list[CandidateRecord] = []
    for a, b in chunks:
        vc, ms, cs = _resolve_chunk(a, b, lo, budget, exit_floor, steps, link)
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
