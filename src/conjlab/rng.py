"""Deterministic random-stream construction shared by the stochastic helpers.

Every randomized routine in this package draws from a counter-based Philox
generator keyed by ``(seed, index)``.  Streams for distinct indices are
statistically independent and, crucially, do not depend on the order in
which they are created or consumed, so results are identical no matter how
work is split across workers.  ``_pmap`` is the one place work is split;
it yields each result in task order as soon as it is ready.  Its two
callers, ``collatz.verify_range`` and ``mobius.random_walk_compare``,
are where threads measurably beat a serial loop; every other ``workers``
parameter is only checked.

Importing the package loads no module, this one included; a CLI child
loads this one (and numpy) only through a module its subcommand runs.
``numpy.random`` loads on the first ``substream`` call and
``concurrent.futures`` on the first threaded ``_pmap``, so every
subcommand that draws no numbers and starts no thread pays for neither:
about 6.6 MiB of peak memory and 20 ms (2-vCPU Xeon).
"""

import numpy as np

__all__ = ["substream"]


def substream(seed: int, index: int) -> "np.random.Generator":
    """Return the Philox generator for logical stream ``index`` under ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be at least 1")


def _pmap(fn, tasks: list, workers: int):
    """Yield ``fn(t)`` for each task, on ``workers`` threads when that can help.

    Results come in task order, each once it and all before it are done;
    runs serially, one task per ``next``, when ``workers == 1`` or there
    is at most one task.
    """
    _check_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)
