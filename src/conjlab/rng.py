"""Deterministic random-stream construction shared by the stochastic helpers.

Every randomized routine in this package draws from a counter-based Philox
generator keyed by ``(seed, index)``, so results do not depend on how work
is split across workers.  Walks and parity vectors are its raw
Philox4x64-10 words (``random_raw``, which NEP 19 keeps stable across numpy
versions): bit i of word j is draw 64j + i on every machine.
``stochastic.heuristic_walk`` still draws ``binomial``, whose stream may
change with numpy.  ``_pmap`` is the one place work is split, yielding
results in task order; its one caller, ``collatz.verify_range``, is where
threads beat a serial loop, and every other ``workers`` is only checked.

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


def _draws(words: np.ndarray, count: int | None = None) -> np.ndarray:
    """The first ``count`` (default: all) draws of raw uint64 ``words`` as
    uint8 0 or 1: bit i of word j is draw 64j + i on every machine."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), count=count, bitorder="little")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


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
