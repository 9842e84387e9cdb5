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
mod 2^16, and about 97% of those residues descend within them.  Each
block of starts is resolved, in ascending order, once its descent ends:
a start's total is its own steps plus the total of the start it links
to, so every reported count is still the exact total stopping time
(steps to the floor, when one is given), and no start ever links to one
that is not yet resolved.  Only the totals span the whole range.

The sweep is exact integer arithmetic throughout.  Starts that fit in
64 bits are advanced in vectorized numpy blocks; any iterate that could
overflow ``3*v + 1`` in uint64 is promoted to a plain Python integer
mid-flight and handed back to its block as soon as it fits again, so
results are identical to the pure-Python path bit for bit.  Promotion is
transient: 8,192 starts from just above 2^62 take about 6 steps each in
Python ints, against 170-220 when a promoted iterate stayed in Python
ints down to its root.

This module is the package's only home of the map, spelled in five
places, one per output shape: ``step`` (one application; ``trajectory``
calls it), ``_follow_py`` (steps to a floor, counted only; ``iterate``,
and ``_descend`` for promoted iterates and a block's last few starts),
``total_stopping_time`` (steps to 1 with the running maximum),
``_parities`` (the parity bits of up to k iterates, for ``parity`` and
``stochastic``) and ``_t_vec`` (one step over an integer array, for the
sweep, the residue table, ``parity.bijection_check`` and the lanes of
``stochastic.empirical_parity_frequency``).  The three scalar loops
stay apart because each extra duty slows the others' hot paths (2-vCPU Xeon, Python 3.11,
median of 7): recording parities in ``_follow_py`` made 65536 starts
from 2^62 followed to their first descent 44% slower; collecting the
iterates and taking ``v & 1`` afterwards made ``_parities`` on
2^40 + [0, 10^4) with k = 64 29% slower, a generator 34%; and
``total_stopping_time`` over a list of iterates holds the whole orbit
and ran 3-6% slower on n in [2, 5*10^4].
"""

import functools
import time
from dataclasses import asdict, dataclass

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
    if k and n < 1:
        raise ValueError("n must be a positive integer")
    return _follow_py(n, k, 0)[2]


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
        import json

        doc = asdict(self)
        keys = ("lo", "hi", "verified_count", "max_stopping_time_seen", "counterexample_candidates")
        return json.dumps({k: doc[k] for k in keys})


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


def _parities(v: int, k: int, floor: int) -> list[int]:
    """Parities of up to ``k`` iterates v, T(v), ..., ending before the
    first iterate below ``floor``."""
    bits = []
    for _ in range(k):
        if v < floor:
            break
        b = v & 1
        bits.append(b)
        v = (3 * v + 1) >> 1 if b else v >> 1
    return bits


def _t_vec(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v & 1, T(v)) elementwise, in the integer dtype of ``v``.

    No overflow guard: the caller keeps 3*v + 1 inside the dtype.  The
    typed scalar ``one`` is faster than bare Python ints, which NumPy 2
    converts on every operation.
    """
    one = v.dtype.type(1)
    odd = v & one
    return odd, (v + odd * (v + v + one)) >> one


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
        odd, v = _t_vec(v)
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
    a: int, offs: np.ndarray, lo: int, budget: int, exit_floor: int
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Phase 1: follow each start a + offs[i] to a root, a link or the budget.

    A root is an iterate below ``exit_floor``.  A link is the first iterate
    v below the start n when it lies in [lo, n); an orbit that first falls
    below n under ``lo`` is followed on to a root.  Returns (steps, link,
    last): int64 arrays over ``offs`` of the steps taken and v - lo (-1 for
    a root), and a dict keyed by i.  A start that exhausts the budget first
    gets ``steps[i] = _cap(budget)``, link -1, and its iterate after
    ``budget`` steps in ``last[i]``.  ``offs`` is ascending.  Below
    ``_JUMP_LIMIT`` the first up-to-16 steps are one residue-table lookup.
    Blocks that reach 2^63 and the last few starts of a block continue in
    Python ints.  An iterate that could overflow uint64 leaves the block
    only until ``_follow_py`` has brought it back under the guard (or
    below its threshold); it rejoins at the top of the loop, so the root,
    link and budget checks see it before it takes another numpy step.
    """
    steps = np.full(offs.size, _cap(budget), dtype=np.int64)
    link = np.full(offs.size, -1, dtype=np.int64)
    last: dict[int, int] = {}
    tail: list[tuple[int, int, int, int]] = []  # (i, iterate, steps, threshold)
    n = offs.astype(np.uint64) + np.uint64(min(a, _U64_MAX_START))
    pos = np.arange(n.size)
    if a + int(offs[-1]) >= _U64_MAX_START:
        tail = [(i, a + o, 0, max(a + o, exit_floor)) for i, o in enumerate(offs.tolist())]
        n, pos = n[:0], pos[:0]
    # floors and link bounds above the uint64 range act as if infinite
    ef = np.uint64(min(exit_floor, _U64_MAX_START))
    lo_u = np.uint64(min(lo, _U64_MAX_START))
    thr = np.maximum(n, ef)
    v, k0 = n, np.zeros(n.size, dtype=np.int64)
    if a < _JUMP_LIMIT:
        first, coef, t_r = _residue_table()
        r = n & np.uint64(_JUMP_MASK)
        j = first[r]
        jump = (n >= ef) & (n < np.uint64(_JUMP_LIMIT)) & (j <= budget)
        v = np.where(jump, coef[r] * (n >> np.uint64(_JUMP_BITS)) + t_r[r], n)
        k0 = np.where(jump, j, 0)
    guard = np.uint64(_U64_GUARD)
    k0_max = int(k0.max(initial=0))
    k = 0
    while v.size:
        # near overflow: Python ints until the iterate fits again, then back
        # into the block before the checks below see it
        if v.size > _PY_TAIL and (up := v > guard).any():
            back = []
            for i, x, s, t in zip(pos[up].tolist(), v[up].tolist(),
                                  (k0[up] + k).tolist(), thr[up].tolist()):
                below, used, x = _follow_py(x, budget - s, max(t, _U64_GUARD + 1))
                if below and x <= _U64_GUARD:
                    back.append((i, x, s + used - k, t))
                else:  # over budget, or under t but still too wide
                    tail.append((i, x, s + used, t))
            keep = ~up
            v, thr, k0, pos = v[keep], thr[keep], k0[keep], pos[keep]
            if back:
                i, x, s, t = zip(*back)
                v = np.concatenate((v, np.array(x, dtype=np.uint64)))
                thr = np.concatenate((thr, np.array(t, dtype=np.uint64)))
                k0 = np.concatenate((k0, np.array(s, dtype=np.int64)))
                pos = np.concatenate((pos, np.array(i, dtype=pos.dtype)))
                k0_max = max(k0_max, max(s))
        leave = v < thr
        if leave.any():
            d = np.flatnonzero(leave)
            vd = v[d]
            root = vd < ef
            fin = root | (vd >= lo_u)
            # fell below the sweep: follow the orbit down to the floor
            thr[d[~fin]] = ef
            leave[d] = fin
            f = d[fin]
            steps[pos[f]] = k0[f] + k
            link[pos[f]] = np.where(root[fin], -1, (vd[fin] - lo_u).astype(np.int64))
        if k + k0_max >= budget:
            # steps and link keep their fill, _cap(budget) and -1
            out = (k0 + k >= budget) & ~leave
            last.update(zip(pos[out].tolist(), v[out].tolist()))
            leave |= out
        if leave.any():
            keep = ~leave
            v, thr, k0, pos = v[keep], thr[keep], k0[keep], pos[keep]
        if v.size <= _PY_TAIL:
            # too few left for numpy to pay: Python ints to the end
            tail += zip(pos.tolist(), v.tolist(), (k0 + k).tolist(), thr.tolist())
            break
        v = _t_vec(v)[1]
        k += 1

    for i, x, s, t in tail:
        below, used, x = _follow_py(x, budget - s, t)
        s += used
        if below and exit_floor <= x < lo:
            below, used, x = _follow_py(x, budget - s, exit_floor)
            s += used
        if below:
            steps[i], link[i] = s, (-1 if x < exit_floor else x - lo)
        else:
            last[i] = x
    return steps, link, last


def _resolve_chunk(
    a: int, lo: int, budget: int, exit_floor: int, total, tgt, totals
) -> tuple[int, int, list[CandidateRecord]]:
    """Phase 2: turn the chunk's steps from a on into total stopping times.

    ``total`` and ``tgt`` are the chunk's steps and links from
    ``_descend``; ``total`` is summed in place and copied into ``totals``,
    which indexes every start from lo and must hold each start before a
    already.  A start's total is its own steps plus its link target's
    total; a total over the budget makes the start a candidate, whose
    last iterate is recomputed with links switched off.  Returns
    (verified_count, max_steps_among_verified, candidates).
    """
    cap = _cap(budget)
    # links into this chunk wait until their target is resolved
    waiting = tgt >= a - lo
    earlier = np.flatnonzero(~waiting & (tgt >= 0))
    total[earlier] += totals[tgt[earlier]]
    np.minimum(total, cap, out=total)
    pending = np.flatnonzero(waiting)
    while pending.size:
        t = tgt[pending] - (a - lo)
        ready = ~waiting[t]
        idx = pending[ready]
        total[idx] = np.minimum(total[idx] + total[t[ready]], cap)
        waiting[idx] = False
        pending = pending[~ready]
    totals[a - lo : a - lo + total.size] = total

    over = np.flatnonzero(total == cap)
    cands = []
    if over.size:
        # no start of this chunk can link at or above its end
        last = _descend(a, over, a + total.size, budget, exit_floor)[2]
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
    recomputed from the start.

    The range is cut into fixed ``chunk_size`` blocks whose boundaries do
    not depend on ``workers``.  Phase 1 maps the blocks over ``workers``
    threads, and phase 2 resolves each block in range order as soon as
    its phase 1 is done, while the threads descend later blocks; so the
    report content is identical for any worker count.  The only array
    over the whole range holds the totals, 4 bytes per start (8 for
    budgets of 2^31 - 1 or more).  Only phase 1 runs on threads, and they
    pay only on wide sweeps: the median for 1..10^7 fell from about 2.0 s
    at 1 worker to 1.5 s at 2; 1..5*10^5 (about 0.12 s) and 8,192 starts
    from 2^62 (about 0.085 s, one chunk) took the same time at either
    count (2-vCPU Xeon, medians of 9).
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
    totals = np.empty(hi - lo + 1, dtype=np.int32 if budget + 1 < 2**31 else np.int64)
    if lo < _JUMP_LIMIT:
        _residue_table()  # build once, before workers share it

    def descend(ab: tuple[int, int]):
        return _descend(ab[0], np.arange(ab[1] - ab[0] + 1), lo, budget, exit_floor)

    verified = 0
    max_steps = -1
    cands: list[CandidateRecord] = []
    for (a, _), (steps, link, _) in zip(chunks, _pmap(descend, chunks, workers)):
        vc, ms, cs = _resolve_chunk(a, lo, budget, exit_floor, steps, link, totals)
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
