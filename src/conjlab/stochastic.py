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
come to the fair-coin assumption.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import _check_workers, _pmap, substream

__all__ = [
    "WalkConfig",
    "WalkSummary",
    "expected_step_drift",
    "heuristic_walk",
    "empirical_parity_frequency",
]

_LOG_UP = math.log(3.0 / 2.0)
_LOG_DOWN = math.log(1.0 / 2.0)


@dataclass(frozen=True)
class WalkConfig:
    trials: int
    steps: int
    seed: int
    p_odd: float = 0.5
    start_log: float = 0.0


@dataclass(frozen=True)
class WalkSummary:
    trials: int
    steps: int
    mean_step_drift: float
    std_error: float
    fraction_descended: float

    def csv_line(self) -> str:
        return (
            f"{self.trials},{self.steps},{self.mean_step_drift!r},"
            f"{self.std_error!r},{self.fraction_descended!r}"
        )


def expected_step_drift(p_odd: float = 0.5) -> float:
    """Model drift per step; (1/2) log(3/4) for fair parities."""
    if not 0.0 <= p_odd <= 1.0:
        raise ValueError("p_odd must lie in [0, 1]")
    return p_odd * _LOG_UP + (1.0 - p_odd) * _LOG_DOWN


def _trial_stats(args) -> tuple[float, float]:
    config, index = args
    ups = int(substream(config.seed, index).binomial(config.steps, config.p_odd))
    displacement = ups * _LOG_UP + (config.steps - ups) * _LOG_DOWN
    return displacement / config.steps, displacement


def heuristic_walk(config: WalkConfig, *, workers: int = 1) -> WalkSummary:
    """Simulate the log-space walk and summarize drift and descent.

    Trial i draws from stream (seed, i); splitting trials across workers
    cannot change any reported number.  ``fraction_descended`` is the
    fraction of trials whose final position lies below the start.
    """
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0.0 <= config.p_odd <= 1.0:
        raise ValueError("p_odd must lie in [0, 1]")
    _check_workers(workers)
    if config.steps == 0:
        return WalkSummary(
            trials=config.trials,
            steps=0,
            mean_step_drift=0.0,
            std_error=0.0,
            fraction_descended=0.0,
        )
    tasks = [(config, i) for i in range(config.trials)]
    stats = _pmap(_trial_stats, tasks, workers)
    drifts = np.array([s[0] for s in stats])
    finals = np.array([s[1] for s in stats])
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
    estimate.  Python integers throughout; iterates may exceed 64 bits.
    """
    if lo < 1:
        raise ValueError("lo must be a positive integer")
    if count < 1:
        raise ValueError("count must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    odd = 0
    total = 0
    for n in range(lo, lo + count):
        v = n
        for i in range(k):
            if i and v == 1:
                break
            b = v & 1
            odd += b
            total += 1
            v = (3 * v + 1) >> 1 if b else v >> 1
    return odd / total
