"""In-memory spans recorded around conjlab's public functions.

The traced child (``traced_cli.py``) installs wrappers on the names that
callers look up at call time, runs one CLI invocation, and dumps every
span as JSON when it exits.  The parent (``run.py``) loads the dumps and
derives per-layer metrics from them (``layers.py``).

A span records its name, start, end, parent span and thread.  On the
thread that opened it, a span's parent is the innermost span still open
on that thread.  A worker thread's outermost span has no open span of
its own thread above it; its parent is the span open on the main thread
when it starts, which is the call that handed the work to the pool.
"""

import functools
import inspect
import itertools
import json
import threading
import time


class Recorder:
    """Collects closed spans in memory; ``dump`` writes them out once."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def discard(self, span: dict) -> None:
        """Forget an open span without recording it."""
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs):
        span = self.open(name)
        try:
            return span, fn(*args, **kwargs)
        finally:
            self.close(span)

    def dump(self, path: str, **meta) -> None:
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": self.spans}, f)


def wrap(rec: Recorder, name: str, fn, describe=None):
    """Wrap ``fn`` in a span named ``name``; the result passes through unchanged.

    ``describe(arguments, result)`` returns span attributes; it runs after
    the span has closed, so its cost is not charged to the layer.
    """
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, result = rec.call(name, fn, args, kwargs)
        if describe is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span["attrs"].update(describe(bound.arguments, result))
        return result

    return wrapper


class TimedIterator:
    """Iterator whose every ``next()`` is one span; items pass through unchanged."""

    def __init__(self, rec: Recorder, name: str, it, describe=None, **attrs):
        self._rec = rec
        self._name = name
        self._it = it
        self._describe = describe
        self._attrs = attrs
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self):
        span = self._rec.open(self._name)
        try:
            item = next(self._it)
        except StopIteration:
            self._rec.discard(span)  # the exhausted call is no work
            raise
        except BaseException:
            self._rec.close(span)
            raise
        self._rec.close(span)
        span["attrs"].update(self._attrs, index=self._index)
        if self._describe is not None:
            span["attrs"].update(self._describe(item))
        self._index += 1
        return item


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: dict, children) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children on worker threads can overlap each other; the union of their
    intervals is subtracted, never the sum, so self time is never negative.
    """
    return (span["end"] - span["start"]) - covered(
        span["start"], span["end"], ((c["start"], c["end"]) for c in children)
    )


def _z_terms(ts) -> dict:
    import numpy as np

    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    terms = int(np.floor(np.sqrt(ts / (2.0 * np.pi))).sum()) if ts.size else 0
    return {"points": int(ts.size), "terms": terms}


def install(rec: Recorder) -> None:
    """Replace conjlab's public functions with span wrappers, in every
    namespace a caller resolves them through at call time."""
    import conjlab.cli as cli
    import conjlab.collatz as collatz
    import conjlab.mobius as mobius
    import conjlab.parity as parity
    import conjlab.stochastic as stochastic
    import conjlab.zeta as zeta

    def patch(name, fn, modules, describe=None):
        w = wrap(rec, name, fn, describe)
        for mod in modules:
            setattr(mod, fn.__name__, w)

    patch(
        "collatz.verify_range",
        collatz.verify_range,
        [cli, collatz],
        lambda a, r: {
            "starts": a["hi"] - a["lo"] + 1,
            "chunks": r.chunk_count,
            "verified": r.verified_count,
            "max_stopping_time": r.max_stopping_time_seen,
        },
    )
    patch(
        "parity.random_fraction",
        parity.random_fraction,
        [cli, parity],
        lambda a, r: {"samples": a["samples"]},
    )
    patch(
        "parity.bijection_check",
        parity.bijection_check,
        [cli, parity],
        lambda a, r: {"residues": 1 << a["k"]},
    )
    patch("stochastic.heuristic_walk", stochastic.heuristic_walk, [cli, stochastic])
    patch(
        "stochastic.empirical_parity_frequency",
        stochastic.empirical_parity_frequency,
        [cli, stochastic],
        lambda a, r: {"starts": a["count"]},
    )
    patch("rng.substream", parity.substream, [parity, mobius, stochastic])

    segments = mobius.mobius_segments

    @functools.wraps(segments)
    def mobius_segments(limit, *args, **kwargs):
        return TimedIterator(
            rec,
            "mobius.mobius_segments",
            segments(limit, *args, **kwargs),
            lambda item: {"integers": int(item[1].size)},
            limit=limit,
        )

    mobius.mobius_segments = mobius_segments
    patch(
        "mobius.mertens",
        mobius.mertens,
        [cli, mobius],
        lambda a, r: {"limit": a["limit"]},
    )
    patch("mobius.growth_statistic", mobius.growth_statistic, [cli, mobius])
    patch(
        "mobius.random_walk_compare",
        mobius.random_walk_compare,
        [cli, mobius],
        lambda a, r: {"limit": a["limit"]},
    )

    patch("zeta.z_values", zeta.z_values, [zeta], lambda a, r: _z_terms(a["ts"]))
    patch(
        "zeta.sign_changes",
        zeta.sign_changes,
        [cli, zeta],
        lambda a, r: {"brackets": len(r)},
    )
    patch("zeta.refine_zero", zeta.refine_zero, [zeta])
    patch("zeta.zeros_in", zeta.zeros_in, [cli, zeta])
    patch(
        "zeta.zero_count_analytic",
        zeta.zero_count_analytic,
        [cli, zeta],
        lambda a, r: {"count": r},
    )
    patch("zeta.verify_rh", zeta.verify_rh, [cli, zeta])
