"""Deterministic random-stream construction shared by the stochastic helpers.

Every randomized routine in this package draws from a counter-based Philox
generator keyed by ``(seed, index)``.  Streams for distinct indices are
statistically independent and, crucially, do not depend on the order in
which they are created or consumed, so results are identical no matter how
work is split across workers.  ``_pmap`` is the one place work is split.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["substream"]


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for logical stream ``index`` under ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be at least 1")


def _pmap(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on ``workers`` threads when that can help.

    Results come back in task order whatever the worker count; runs serially
    when ``workers == 1`` or there is at most one task.
    """
    _check_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        return list(map(fn, tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
