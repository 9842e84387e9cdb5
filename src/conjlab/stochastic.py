"""Multiplicative random-walk model of Collatz descent.

One accelerated step multiplies the current value by roughly 3/2 (odd
case) or exactly 1/2 (even case), so in log space an orbit looks like a
random walk with i.i.d. increments log(3/2) and log(1/2).  With fair
parities the per-step drift is

    (1/2) log(3/2) + (1/2) log(1/2)  =  (1/2) log(3/4)  < 0,

which is the heuristic reason orbits should descend.  ``heuristic_walk``
simulates that model exactly (only the count of up-moves matters for
every reported statistic, so each trial draws one binomial);
``empirical_parity_frequency`` measures how close actual orbit parities
come to the fair-coin assumption, stepping the starts as uint64 lanes
with ``collatz``'s array step and handing any lane that outgrows them to
its scalar parity loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .collatz import _U64_GUARD, _parities, _t_vec
from .rng import _check_seed, _check_workers, substream

__all__ = [
    "WalkConfig",
    "WalkSummary",
    "expected_step_drift",
    "heuristic_walk",
    "empirical_parity_frequency",
]

_LOG_UP = math.log(3.0 / 2.0)
_LOG_DOWN = math.log(1.0 / 2.0)
_LANES = 1 << 16  # starts per block of uint64 lanes


@dataclass(frozen=True)
class WalkConfig:
    trials: int
    steps: int
    seed: int
    p_odd: float = 0.5


@dataclass(frozen=True)
class WalkSummary:
    trials: int
    steps: int
    mean_step_drift: float
    std_error: float
    fraction_descended: float


def expected_step_drift(p_odd: float = 0.5) -> float:
    """Model drift per step; (1/2) log(3/4) for fair parities."""
    if not 0.0 <= p_odd <= 1.0:
        raise ValueError("p_odd must lie in [0, 1]")
    return p_odd * _LOG_UP + (1.0 - p_odd) * _LOG_DOWN


def _displacement(config: WalkConfig, index: int) -> float:
    ups = int(substream(config.seed, index).binomial(config.steps, config.p_odd))
    return ups * _LOG_UP + (config.steps - ups) * _LOG_DOWN


def heuristic_walk(config: WalkConfig, *, workers: int = 1) -> WalkSummary:
    """Simulate the log-space walk and summarize drift and descent.

    Trial i draws from stream (seed, i).  ``fraction_descended`` is the
    fraction of trials whose final position lies below the start.
    ``workers`` is checked but unused: a trial is one Philox setup and one
    binomial draw, about 25 us of Python holding the GIL, and 10,000
    trials took 0.25 s serially against 1.5 s on 2 threads (2-vCPU Xeon).

    Unlike the walks of ``mobius`` and the vectors of ``parity``, a trial
    is not defined by raw Philox words: counting the up-moves in them
    would cost O(steps) per trial where ``binomial`` costs O(1), and would
    slow ``walk simulate --steps 1000000``.  So this stream depends on
    numpy's ``binomial`` and may change with the numpy version.
    """
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    if config.steps >= 2**63:  # binomial takes an int64 count
        raise ValueError(f"steps must be below 2**63, got {config.steps}")
    if not 0.0 <= config.p_odd <= 1.0:
        raise ValueError("p_odd must lie in [0, 1]")
    _check_seed(config.seed)
    _check_workers(workers)
    if config.steps == 0:
        return WalkSummary(
            trials=config.trials,
            steps=0,
            mean_step_drift=0.0,
            std_error=0.0,
            fraction_descended=0.0,
        )
    finals = np.array([_displacement(config, i) for i in range(config.trials)])
    drifts = finals / config.steps
    sem = float(drifts.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return WalkSummary(
        trials=config.trials,
        steps=config.steps,
        mean_step_drift=float(drifts.mean()),
        std_error=sem,
        fraction_descended=float((finals < 0.0).mean()),
    )


def empirical_parity_frequency(lo: int, count: int, k: int) -> float:
    """Pooled odd fraction over the first k iterates of each start in
    [lo, lo + count).

    A start's contribution truncates once its orbit hits 1 (the start
    itself always counts), so the tail of fixed points never dilutes the
    estimate.  Starts run as uint64 lanes, 2^16 at a time: each step
    counts the odd lanes and drops those that reached 1.  A lane whose
    step could overflow uint64, or whose start already could, finishes
    in Python integers, so iterates may exceed 64 bits.  Odd
    and total are exact integer counts, so the fraction is bit for bit
    the pure-Python one.
    """
    if lo < 1:
        raise ValueError("lo must be a positive integer")
    if count < 1:
        raise ValueError("count must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    odd = total = 0

    def finish(v: int, steps: int) -> None:
        nonlocal odd, total
        bits = _parities(v, steps, 2)
        odd += sum(bits)
        total += len(bits)

    hi = lo + count
    for n in range(max(lo, _U64_GUARD + 1), hi):
        finish(n, k)
    guard = np.uint64(_U64_GUARD)
    for a in range(lo, min(hi, _U64_GUARD + 1), _LANES):
        v = np.arange(min(_LANES, hi - a, _U64_GUARD + 1 - a), dtype=np.uint64)
        v += np.uint64(a)
        for i in range(k):
            if (up := v > guard).any():
                for x in v[up].tolist():
                    finish(x, k - i)
                v = v[~up]
            total += v.size
            bits, v = _t_vec(v)
            odd += np.count_nonzero(bits)
            v = v[v > 1]
            if not v.size:
                break
    return odd / total
