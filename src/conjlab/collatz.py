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
mod 2^16, and about 97% of those residues descend within them; the
others go on through the same table, one first descent at a time.  Each
block of starts is resolved, in range order, once its descent ends: a
start's total is its own steps plus the total of the start it links to,
read back from earlier blocks, or summed along the chain by pointer
jumping when the link stays inside the block, so every reported count
is still the exact total stopping time (steps to the floor, when one is
given).  The step onto a link target is a halving, so the target of n
lies in [n/2, n), and the totals are kept only from half the current
block upward, in int16 with the rare wider one in a dict: about 1 byte
per start of a sweep from 1, 2 when lo is large against the range.
``conjlab collatz verify --lo 1 --hi 30000000 --budget 100000`` peaks at
62 MiB.

The sweep is exact integer arithmetic throughout.  Starts that fit in
64 bits are advanced in vectorized numpy blocks; an iterate whose step
could overflow uint64 is promoted to a plain Python integer mid-flight
and handed back to its block as soon as it fits again, so results are
identical to the pure-Python path bit for bit.  Promotion is transient:
8,192 starts from just above 2^62 take about 2.7 steps each in Python
ints.

This module is the package's only home of the map: no other module steps
it (``parity.realize`` solves a congruence instead).  It is spelled in
five places, one per output shape: ``step`` (one application;
``trajectory`` calls it), ``_follow_py`` (steps to a floor, counted
only; ``iterate``, and ``_descend`` for promoted iterates and a block's
last few starts), ``total_stopping_time`` (steps to 1 with the running
maximum), ``_parities`` (the parity bits of up to k iterates, for
``parity`` and ``stochastic``) and ``_t_vec`` (one step over an integer
array, for the sweep, the residue table, ``parity.bijection_check`` and
the lanes of ``stochastic.empirical_parity_frequency``).  The three
scalar loops stay apart because each extra duty slows the others' hot
paths (2-vCPU Xeon, Python 3.11, median of 7): recording parities in
``_follow_py`` made 65536 starts from 2^62 followed to their first
descent 44% slower; collecting the iterates and taking ``v & 1``
afterwards made ``_parities`` on 2^40 + [0, 10^4) with k = 64 29%
slower, a generator 34%; and ``total_stopping_time`` over a list of
iterates holds the whole orbit and ran 3-6% slower on n in [2, 5*10^4].
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

# Starts per block: one phase-1 task, resolved at once in phase 2.  The
# block's steps and links (16 B per start) and phase 2's temporaries are
# the sweep's fixed working set, about 3 MiB at 2^16; the totals window
# adds about 1 B per start of the range (1..3*10^7 through the CLI: 62 MiB).
# Smaller blocks are slower, since each runs its own straggler loop and
# Python tail: 1..10^7 took 0.99 s at 2^13 against 0.63 s at 2^16 (2-vCPU
# Xeon, medians of 7).
DEFAULT_CHUNK_SIZE = 1 << 16

# Largest v up to which no step wraps a uint64 (odd, about 2^63.4): T(v) = 2^64 - 2.
_U64_GUARD = (2**65 - 3) // 3
# Iterates below _JUMP_LIMIT take their next up-to-16 steps in closed form
# from a residue mod 2^16.  T^j(n) + 1 <= (3/2)^j (n + 1), so for j <= 16
# the closed form fits in uint64 whenever n + 1 <= 2^80 / 3^16.
_JUMP_BITS = 16
_JUMP_MASK = (1 << _JUMP_BITS) - 1
_JUMP_LIMIT = 2**80 // 3**16
# Step counts saturate here; no orbit a sweep can follow takes 2^61 steps.
_CAP = 2**61
# Blocks this small continue in Python ints.  One numpy step of the loop
# costs 10-20 us up to a few hundred live lanes, and a Python-int step
# about 0.11 us per lane, so per step numpy pays only from 110-170 lanes
# on; but a tail of 128 was no faster than 64 at the default chunk size
# (from 1 or from 2^62), and gained only at chunk sizes of 97 and 256
# (2-vCPU Xeon, Python 3.11).
_PY_TAIL = 64
# Sweep totals are stored in int16; from this value up they are kept in a dict.
_WIDE = 2**15 - 1
# The first descent of a block runs this many starts at a time, so its
# temporaries do not grow with the block.  At 2^13 one worker ran as fast,
# but two were slower on 1..10^7 (0.97 s against 0.92 s at 2^14, medians
# of 9 alternating runs).
_SUB = 1 << 14


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

    T(v) = (v >> 1) + (v & 1) * (v + 1) never forms 3v + 1; the caller
    keeps T(v) inside the dtype.  The typed scalar ``one`` is faster than
    bare Python ints, which NumPy 2 converts on every operation.
    """
    one = v.dtype.type(1)
    odd = v & one
    return odd, (v >> one) + odd * (v + one)


def _first_descent(v: np.ndarray, mult: np.ndarray, first: np.ndarray, steps: range):
    """Take ``steps`` of the residues v, where ``mult`` is 3^a for the a
    odd steps before them, and stop each at the first step i with
    3^a < 2^i: ``first`` counts the steps taken.  Returns v, mult and
    first at the stop, and the lanes that have not stopped."""
    open_ = np.ones(v.size, dtype=bool)
    for i in steps:
        odd, w = _t_vec(v)
        v = np.where(open_, w, v)
        mult += 2 * (odd & open_) * mult
        first += open_
        open_ &= mult >= 2**i
    return v, mult, first, open_


@functools.cache
def _residue_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form first descent of every residue r mod 2^16.

    For n = q * 2^16 + r the first j <= 16 steps follow r's parities, so
    T^j(n) = 3^a * 2^(16-j) * q + T^j(r) with a the odd steps among them.
    Per residue: j, the first step with 3^a < 2^j (16 if there is none),
    the coefficient 3^a * 2^(16-j), and T^j(r).  Every iterate before j
    exceeds n, because 3^a > 2^i there.  Built on first use, in uint64
    (exact: T^i(r) < 3^16), from the residues l mod 2^8: the first 8
    steps of r = h * 2^8 + l follow l, so T^j(r) = 3^a * 2^(8-j) * h +
    T^j(l) for j <= 8, and only the 4,864 residues still open after 8
    steps (19 of the 256 l) take steps 9 to 16, from T^8(r).
    """
    half = _JUMP_BITS // 2
    low = np.arange(1 << half, dtype=np.uint64)
    t_l, mult, first, open_ = _first_descent(
        low, np.ones_like(low), np.zeros(low.size, dtype=np.uint8), range(1, half + 1)
    )
    # r = h * 2^8 + l sits in row h, column l
    t_r = (low[:, None] * (mult << (half - first)) + t_l).ravel()
    mult, first, open_ = (np.tile(x, low.size) for x in (mult, first, open_))
    at = np.flatnonzero(open_)
    steps = range(half + 1, _JUMP_BITS + 1)
    t_r[at], mult[at], first[at], _ = _first_descent(t_r[at], mult[at], first[at], steps)
    table = first, mult << (_JUMP_BITS - first), t_r
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
    ``budget`` steps in ``last[i]``.  ``offs`` is ascending.

    The first descent is taken ``_SUB`` starts at a time: in a block below
    ``_JUMP_LIMIT`` the first up-to-16 steps are one residue-table lookup
    (``take`` on intp residues), the root and link checks run once on the
    result and write steps and links as slices, and only the few survivors
    (about 3% from 1) are gathered, to go on together to the numpy loop.
    There, too, each round is one lookup, to the first iterate below each
    lane's value, while every lane is under ``_JUMP_LIMIT`` and 16 more
    steps fit the budget; else it is one step.  Either way the checks see
    every iterate that could be under a threshold, since a lane's
    threshold is at most its value.
    Blocks that reach past ``_U64_GUARD`` and the last few starts of a
    block continue in Python ints.  An iterate that could overflow uint64
    leaves the block only until ``_follow_py`` has brought it back under
    the guard (or below its threshold); it takes its slot back, so the
    root, link and budget checks see it before it takes another numpy
    step.
    """
    steps = np.full(offs.size, _cap(budget), dtype=np.int64)
    link = np.full(offs.size, -1, dtype=np.int64)
    last: dict[int, int] = {}
    # Only blocks of starts up to _U64_GUARD take the numpy path, so lo
    # stays at or below the clamp, and a floor that is clamped lies above
    # every start: each is a root at step 0, as under the true floor.
    ef = np.uint64(min(exit_floor, _U64_GUARD + 1))
    lo_u = np.uint64(min(lo, _U64_GUARD + 1))

    def settle(v, thr, k0, pos, k, k_max, leave):
        # of the lanes under their threshold (``leave`` is v < thr), record
        # those at a root or a link, and those out of budget after k more
        # steps (k_max bounds k0 + k); return the others
        d = np.flatnonzero(leave)
        if d.size:
            vd = v[d]
            root = vd < ef
            fin = root | (vd >= lo_u)
            # fell below the sweep: follow the orbit down to the floor
            thr[d[~fin]] = ef
            leave[d] = fin
            f = d[fin]
            steps[pos[f]] = k0[f] + k
            link[pos[f]] = np.where(root[fin], -1, (vd[fin] - lo_u).astype(np.int64))
        if k_max >= budget:
            # steps and link keep their fill, _cap(budget) and -1
            out = (k0 + k >= budget) & ~leave
            last.update(zip(pos[out].tolist(), v[out].tolist()))
            leave |= out
        keep = ~leave
        return v[keep], thr[keep], k0[keep], pos[keep]

    tail: list[tuple[int, int, int, int]] = []  # (i, iterate, steps, threshold)
    live = []
    end = a + int(offs[-1])
    if table := end < _JUMP_LIMIT:
        first, coef, t_r = _residue_table()
    if end >= _U64_GUARD + 1:
        tail = [(i, a + o, 0, max(a + o, exit_floor)) for i, o in enumerate(offs.tolist())]
    else:
        lk = max(lo_u, ef)
        for s in range(0, offs.size, _SUB):
            n = offs[s : s + _SUB].astype(np.uint64) + np.uint64(a)
            v, j = n, np.zeros(n.size, dtype=np.uint8)
            if table:
                r = (n & np.uint64(_JUMP_MASK)).view(np.intp)
                j = first.take(r)
                # no table step for a root, or past the budget
                j *= (j <= min(budget, _JUMP_BITS)) & (n >= ef)
                v = np.where(j > 0, coef.take(r) * (n >> np.uint64(_JUMP_BITS)) + t_r.take(r), n)
            linked = (v >= lk) & (v < n)
            np.copyto(link[s : s + _SUB], (v - lo_u).view(np.int64), where=linked)
            linked |= v < ef
            np.copyto(steps[s : s + _SUB], j, where=linked)
            # the survivors: still above n, fallen under lo (followed on
            # to the floor), or not stepped
            i = np.flatnonzero(~linked)
            v, n = v[i], n[i]
            live.append((v, np.where(v < n, ef, n), j[i].astype(np.int64), i + s))
    v, thr, k0, pos = map(np.concatenate, zip(*live)) if live else (offs[:0],) * 4
    guard = np.uint64(_U64_GUARD)
    k0_max = int(k0.max(initial=0))
    k = 0
    while v.size:
        # near overflow: Python ints until the iterate fits again, then back
        # into its slot before the checks below see it
        if v.size > _PY_TAIL and (idx := np.flatnonzero(v > guard)).size:
            gone = []
            for j, x, s, t in zip(idx.tolist(), v[idx].tolist(),
                                  (k0[idx] + k).tolist(), thr[idx].tolist()):
                below, used, x = _follow_py(x, budget - s, max(t, _U64_GUARD + 1))
                if below and x <= _U64_GUARD:
                    v[j], k0[j] = x, s + used - k
                else:  # over budget, or under t but still too wide
                    tail.append((int(pos[j]), x, s + used, t))
                    gone.append(j)
            k0_max = max(k0_max, int(k0[idx].max()))
            if gone:
                keep = np.ones(v.size, dtype=bool)
                keep[gone] = False
                v, thr, k0, pos = v[keep], thr[keep], k0[keep], pos[keep]
        leave = v < thr
        if leave.any() or k + k0_max >= budget:
            v, thr, k0, pos = settle(v, thr, k0, pos, k, k + k0_max, leave)
        if v.size <= _PY_TAIL:
            # too few left for numpy to pay: Python ints to the end
            tail += zip(pos.tolist(), v.tolist(), (k0 + k).tolist(), thr.tolist())
            break
        if table and k + k0_max + _JUMP_BITS <= budget and v.max() < _JUMP_LIMIT:
            # to the first iterate below v: none before it is under its
            # threshold, which is at most v
            r = (v & np.uint64(_JUMP_MASK)).view(np.intp)
            k0 += first.take(r) - 1
            v = coef.take(r) * (v >> np.uint64(_JUMP_BITS)) + t_r.take(r)
            k0_max += _JUMP_BITS - 1
        else:
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


class _Totals:
    """Exact totals of a sliding window of starts: int16, wider ones in a dict.

    The step onto a start's link target is a halving, so the target of n
    lies in [n/2, n), and resolving the chunk at a reads totals only from
    max(lo, a // 2) on.  The window keeps those and the chunk itself, and
    moves its live part to the front only when the next chunk would not
    fit.  Index i stands for the start lo + i.  A total of ``_WIDE`` or
    more is stored as ``_WIDE`` and kept exactly in ``wide``.
    """

    def __init__(self, lo: int, chunks: list[tuple[int, int]]):
        self.lo = lo
        self.base = 0  # index held in buf[0]
        self.buf = np.empty(max(b + 1 - max(lo, a // 2) for a, b in chunks), dtype=np.int16)
        self.wide: dict[int, int] = {}

    def slide(self, a: int, b: int) -> None:
        """Keep the starts from max(lo, a // 2) to a - 1; make room up to b."""
        w, a = max(self.lo, a // 2) - self.lo, a - self.lo
        if b + 1 - self.lo - self.base > self.buf.size:
            # a one-dimensional forward copy: numpy moves it in place
            self.buf[: a - w] = self.buf[w - self.base : a - self.base]
            self.base = w
            self.wide = {i: t for i, t in self.wide.items() if i >= w}

    def add(self, total: np.ndarray, idx: np.ndarray, where: np.ndarray) -> None:
        """Add the totals at the indices ``idx`` to ``total`` where ``where``
        holds; elsewhere ``idx`` may be anything."""
        t = self.buf.take(idx - self.base, mode="clip")
        t *= where
        total += t
        wide = np.flatnonzero(t == _WIDE)
        if wide.size:
            total[wide] += [self.wide[i] - _WIDE for i in idx[wide].tolist()]

    def put(self, i: int, total: np.ndarray) -> None:
        """Store the totals from index i on."""
        self.buf[i - self.base : i - self.base + total.size] = np.minimum(total, _WIDE)
        wide = np.flatnonzero(total >= _WIDE)
        self.wide.update(zip((wide + i).tolist(), total[wide].tolist()))


def _resolve_chunk(
    a: int, lo: int, budget: int, exit_floor: int, total, tgt, totals: _Totals
) -> tuple[int, int, list[CandidateRecord]]:
    """Phase 2: turn the chunk's steps from a on into total stopping times.

    ``total`` and ``tgt`` are the chunk's steps and links from
    ``_descend``; ``total`` is summed in place and stored in ``totals``,
    which must hold each start from max(lo, a // 2) up to a already.  A
    start's total is its own steps plus its link target's total: one
    ``take`` from ``totals`` for the links below the chunk, then pointer
    jumping for those inside it, a batch of ``_SUB`` links at a time in
    ascending order, each round halving the unsummed part of every chain
    (the first chunk of a sweep from 1 nests links 28 deep: its four
    batches take 5, 3, 3 and 2 rounds, where one round per level took
    28).  A total over the budget makes the start a candidate, whose last
    iterate is recomputed with links switched off.  Returns
    (verified_count, max_steps_among_verified, candidates).
    """
    cap = _cap(budget)
    base = a - lo
    # links below the chunk (a root's -1 reads as 2^64 - 1)
    totals.add(total, tgt, tgt.view(np.uint64) < np.uint64(base))
    np.minimum(total, cap, out=total)
    # links into the chunk: pointer jumping, _SUB links at a time in
    # ascending order, so every target below a batch is final
    up = tgt - base
    inner = np.flatnonzero(up >= 0)
    for s in range(0, inner.size, _SUB):
        i = inner[s : s + _SUB]
        p = up[i]
        while i.size:
            # each start adds its target's partial sum and takes on its
            # target's link, doubling the part of its chain it has summed
            total[i] = np.minimum(total[i] + total[p], cap)
            up[i] = p = up[p]
            keep = p >= 0
            i, p = i[keep], p[keep]
    totals.put(base, total)

    over = np.flatnonzero(total == cap)
    cands = []
    if over.size:
        # no start of this chunk can link at or above its end
        last = _descend(a, over, a + total.size, budget, exit_floor)[2]
        cands = [
            CandidateRecord(n=a + o, steps_taken=budget, last_iterate=last[i])
            for i, o in enumerate(over.tolist())
        ]
    max_steps = int(total.max(initial=-1, where=total < cap))
    return total.size - over.size, max_steps, cands


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
    from a residue table mod 2^16.  Phase 2 adds each link target's total
    to the start's own steps, reading targets in earlier blocks back and
    summing chains inside a block by pointer jumping, so every reported
    step count is still the exact number of steps to the floor: the total
    stopping time when there is no floor.  A start whose total exceeds the
    budget is a candidate, and its last iterate is recomputed from the
    start.

    The range is cut into fixed ``chunk_size`` blocks whose boundaries do
    not depend on ``workers``.  Phase 1 maps the blocks over ``workers``
    threads, and phase 2 resolves each block in range order as soon as
    its phase 1 is done, while the threads descend later blocks; so the
    report content is identical for any worker count.  No array spans
    the range: the totals of [max(lo, a // 2), a + chunk_size) are kept
    for the block at a, 2 bytes each, which is about 1 byte per start of
    a sweep from 1; a total of 2^15 - 1 or more is kept exactly in a
    dict.  ``conjlab collatz verify`` on 1..3*10^7 peaks at 62 MiB at 1
    worker and 71 MiB at 2.
    Only phase 1 runs on threads, at most two blocks per worker ahead of
    phase 2, and with both phases down to a few numpy calls per block
    they no longer pay: as CLI children, 1..10^7 took 0.56 s at 1 worker
    and 0.68 s at 2 (1 faster in 9 of 9 alternating pairs), 1..3*10^7
    1.54 s and 2.04 s (7 of 7), 1..5*10^5 0.16 s and 0.19 s (9 of 9), and
    8,192 starts from 2^62 (one chunk) run serially at either (2-vCPU
    Xeon, Python 3.11, medians).
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
    totals = _Totals(lo, chunks)
    if lo < _JUMP_LIMIT:
        _residue_table()  # build once, before workers share it

    def descend(ab: tuple[int, int]):
        return _descend(ab[0], np.arange(ab[1] - ab[0] + 1), lo, budget, exit_floor)

    verified = 0
    max_steps = -1
    cands: list[CandidateRecord] = []
    phase1 = _pmap(descend, chunks, workers)
    for a, b in chunks:
        totals.slide(a, b)
        # no name keeps a resolved chunk's arrays while the next one descends
        vc, ms, cs = _resolve_chunk(a, lo, budget, exit_floor, *next(phase1)[:2], totals)
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
