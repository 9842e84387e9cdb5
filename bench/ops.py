"""The CLI invocations the benchmark times, and the check each output must pass.

An op is one or more ``conjlab`` invocations whose spawn-to-exit times
are summed into one end-to-end metric (``<op>_s``).  Every op has a full
size, which exercises its layer in the regime described in README.md,
and a smoke size, which runs the same code path on an input small enough
that start-up dominates.  A workload runs all nine ops: its own at full
size, the rest at smoke size, so that every workload reports every
metric and a change to one layer is predicted to leave the smoke-sized
ops alone.

Expected values are independent of the code under test: known
mathematical constants (the squarefree count Q(10^6) = 607926, the zero
count N(60) = 13, the zero ordinates 14.134725...), or maxima found by a
separate memoised Collatz sweep (start 410011 takes 282 accelerated
steps; 52527 takes 214).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

BUDGET = 100_000
LOG_34_HALF = 0.5 * math.log(3.0 / 4.0)
# |M(5)| / sqrt(5) = 2 / sqrt(5): the largest |M(n)| / sqrt(n) for 2 <= n <= 10^8
MERTENS_SUP = "0.8944271909999159"
FIRST_ZEROS = (14.134725, 21.022040, 25.010858)

# Largest accelerated-map stopping time among starts 1..hi.
SWEEP_MAX_STOP = {65_536: 214, 500_000: 282}
# Squarefree integers up to the limit: Q(10^4), Q(10^6).
SQUAREFREE = {10_000: 6_083, 1_000_000: 607_926}
# Zeros of zeta with ordinate in (10, hi): N(30) = 3, N(60) = 13.
ZERO_COUNT = {30: 3, 60: 13}


class CheckFailed(Exception):
    """A CLI output is not the one the op must produce."""


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Op:
    name: str
    calls: tuple[Call, ...]
    workers: int | None = None  # the --workers value, for ops that take one
    rebuild: Callable[[int], "Op"] | None = field(default=None, compare=False)

    @property
    def argvs(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c.argv for c in self.calls)

    def with_workers(self, workers: int) -> "Op":
        return self.rebuild(workers)


def _rows(stdout: str, width: int) -> list[list[str]]:
    if not stdout.endswith("\n"):
        raise CheckFailed("output does not end with a newline")
    rows = [line.split(",") for line in stdout[:-1].split("\n")]
    for r in rows:
        if len(r) != width:
            raise CheckFailed(f"expected {width} fields, got {r!r}")
    return rows


def _one_row(stdout: str, width: int) -> list[str]:
    rows = _rows(stdout, width)
    if len(rows) != 1:
        raise CheckFailed(f"expected one line, got {len(rows)}")
    return rows[0]


def _num(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _exact(expected: str) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        _require(stdout == expected, f"expected {expected!r}, got {stdout[:200]!r}")

    return check


def _workers_flag(workers: int | None) -> tuple[str, ...]:
    return () if workers is None else ("--workers", str(workers))


def _op(name, make, seed, full, workers, *calls) -> Op:
    return Op(
        name=name,
        calls=tuple(calls),
        workers=workers,
        rebuild=functools.partial(make, seed, full),
    )


def sweep(seed: int, full: bool, workers: int = 1) -> Op:
    """Ascending sweep from 1: the numpy uint64 chunk loop, never promoted."""
    hi = 500_000 if full else 65_536
    argv = ("collatz", "verify", "--lo", "1", "--hi", str(hi), "--budget", str(BUDGET))
    expected = f"1,{hi},{hi},0,{SWEEP_MAX_STOP[hi]}\n"
    return _op("sweep", sweep, seed, full, workers,
               Call(argv + _workers_flag(workers), _exact(expected)))


def frontier_lo(seed: int) -> int:
    return 2**62 + (seed % 2**20) * 2**16


def frontier(seed: int, full: bool, workers: int | None = None) -> Op:
    """A window just above 2^62, where most starts are promoted to Python ints.

    Every n < 2^68 is known to converge, so any candidate is a fault.
    """
    lo = frontier_lo(seed)
    count = 8_192 if full else 256
    hi = lo + count - 1
    argv = ("collatz", "verify", "--lo", str(lo), "--hi", str(hi), "--budget", str(BUDGET))

    def check(stdout: str) -> None:
        r = _one_row(stdout, 5)
        _require(r[:2] == [str(lo), str(hi)], f"range {r[:2]}")
        _require(_num(r[2], int) == count, f"verified {r[2]} of {count}")
        _require(r[3] == "0", f"{r[3]} candidates below 2^68")
        _require(_num(r[4], int) > 0, f"max stopping time {r[4]}")

    return _op("frontier", frontier, seed, full, None, Call(argv, check))


def fraction(seed: int, full: bool, workers: int = 1) -> Op:
    """Random 4096-bit vectors through the LZ estimator: a GIL-bound Python loop."""
    samples = 40 if full else 4
    argv = ("parity", "fraction", "--k", "4096", "--samples", str(samples),
            "--seed", str(seed))

    def check(stdout: str) -> None:
        r = _one_row(stdout, 4)
        _require(r[:2] == ["4096", str(samples)], f"k, samples {r[:2]}")
        _require(_num(r[3]) >= 0.5, f"fraction {r[3]} < 0.5")

    return _op("fraction", fraction, seed, full, workers,
               Call(argv + _workers_flag(workers), check))


def bijection(seed: int, full: bool, workers: int | None = None) -> Op:
    """Exhaustive residue/vector check, vectorised over all 2^k residues."""
    k = 20 if full else 12
    argv = ("parity", "bijection", "--k", str(k))
    return _op("bijection", bijection, seed, full, None, Call(argv, _exact(f"{k},true\n")))


def walk(seed: int, full: bool, workers: int | None = None) -> Op:
    """Log-space drift simulation, then observed parities of real orbits."""
    steps = 1_000_000 if full else 1_000
    count = 10_000 if full else 200
    lo = 2**40
    simulate = ("walk", "simulate", "--trials", "100", "--steps", str(steps),
                "--seed", str(seed))
    empirical = ("walk", "empirical", "--lo", str(lo), "--count", str(count), "--k", "64")

    def check_simulate(stdout: str) -> None:
        r = _one_row(stdout, 5)
        _require(r[:2] == ["100", str(steps)], f"trials, steps {r[:2]}")
        mean, se = _num(r[2]), _num(r[3])
        _require(abs(mean - LOG_34_HALF) <= 5.0 * se, f"drift {mean} not within 5 SE {se}")

    def check_empirical(stdout: str) -> None:
        r = _one_row(stdout, 4)
        _require(r[:3] == [str(lo), str(count), "64"], f"lo, count, k {r[:3]}")
        _require(0.48 <= _num(r[3]) <= 0.52, f"frequency {r[3]}")

    return _op("walk", walk, seed, full, None,
               Call(simulate, check_simulate), Call(empirical, check_empirical))


def growth(seed: int, full: bool, workers: int | None = None) -> Op:
    """One large streaming sieve, bound by its int32 table of partial sums."""
    limit = 5_000_000 if full else 100_000
    argv = ("mertens", "growth", "--limit", str(limit), "--epsilon", "0.0")
    return _op("growth", growth, seed, full, None,
               Call(argv, _exact(f"0.0,{MERTENS_SUP},5\n")))


def compare(seed: int, full: bool, workers: int = 1) -> Op:
    """A small range sieved twice, then Philox +-1 walks."""
    limit = 1_000_000 if full else 10_000
    trials = 20 if full else 5
    argv = ("mertens", "compare", "--limit", str(limit), "--trials", str(trials),
            "--seed", str(seed))

    def check(stdout: str) -> None:
        r = _one_row(stdout, 8)
        _require(r[:2] == [str(limit), str(trials)], f"limit, trials {r[:2]}")
        _require(_num(r[2], int) == SQUAREFREE[limit], f"walk_length {r[2]}")
        _require(r[3] == MERTENS_SUP, f"mertens_statistic {r[3]}")
        _require(0.0 <= _num(r[5]) <= 1.0, f"percentile_rank {r[5]}")

    return _op("compare", compare, seed, full, workers,
               Call(argv + _workers_flag(workers), check))


def scan(seed: int, full: bool, workers: int | None = None) -> Op:
    """A vectorised Z grid; at full size it must halve once before the counts agree."""
    T, step = ("8000", "0.2") if full else ("100", "0.05")
    argv = ("zeta", "verify", "--T", T, "--step", step)

    def check(stdout: str) -> None:
        r = _one_row(stdout, 5)
        _require(_num(r[0]) == float(T), f"T {r[0]}")
        _require(r[1] == r[2], f"sign changes {r[1]} != analytic count {r[2]}")
        _require(r[3] == "true", f"verified {r[3]}")

    return _op("scan", scan, seed, full, None, Call(argv, check))


def refine(seed: int, full: bool, workers: int | None = None) -> Op:
    """Bisection of every bracket, about 28 one-point Z evaluations per zero."""
    lo, hi = 10, (60 if full else 30)
    argv = ("zeta", "refine", "--lo", str(lo), "--hi", str(hi), "--step", "0.05")

    def check(stdout: str) -> None:
        rows = _rows(stdout, 2)
        _require(len(rows) == ZERO_COUNT[hi], f"{len(rows)} zeros, expected {ZERO_COUNT[hi]}")
        _require([r[0] for r in rows] == [str(i + 1) for i in range(len(rows))], "indices")
        ts = [_num(r[1]) for r in rows]
        _require(all(a < b for a, b in zip(ts, ts[1:])), "ordinates not increasing")
        _require(lo < ts[0] and ts[-1] < hi, f"ordinates outside ({lo}, {hi})")
        for t, known in zip(ts, FIRST_ZEROS):
            _require(abs(t - known) <= 1e-3, f"zero {t} is not {known}")

    return _op("refine", refine, seed, full, None, Call(argv, check))


OP_MAKERS = {
    "sweep": sweep,
    "frontier": frontier,
    "fraction": fraction,
    "bijection": bijection,
    "walk": walk,
    "growth": growth,
    "compare": compare,
    "scan": scan,
    "refine": refine,
}
OP_NAMES = tuple(OP_MAKERS)

# The ops each workload runs at full size; the others run at smoke size.
WORKLOADS = {
    "collatz": ("sweep", "frontier", "fraction", "bijection", "walk"),
    "riemann": ("growth", "compare", "scan", "refine"),
}


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The nine ops of a workload, in the order they run each round, at 1 worker."""
    full = WORKLOADS[workload]
    return [OP_MAKERS[name](seed, name in full) for name in OP_NAMES]


def _check_banner(stdout: str) -> None:
    _require(stdout.startswith("conjlab ") and stdout.endswith("\n"), f"banner {stdout!r}")


# Start-up alone: import of numpy and conjlab, and the zeta Chebyshev table.
VERSION = Op("setup", (Call(("--version",), _check_banner),))
