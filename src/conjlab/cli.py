"""Command-line front end.

One subcommand group per library module.  Data go to stdout, one CSV or
JSON line per record; diagnostics (timings, expected values) go to
stderr so stdout stays byte-stable for a fixed invocation.  Every
subcommand forwards library warnings to stderr as ``warning: <message>``.
Floats are printed with repr, the shortest round-trip form.

Exit codes: 0 success / property verified, 1 budget exhausted or
property not confirmed (candidates found, truncated orbit, count
mismatch), 2 usage or domain error.
"""

import argparse
import dataclasses
import os
import sys
import warnings

from . import __version__

# conjlab makes no BLAS call, and numpy's bundled OpenBLAS spends about
# 70 ms of CPU building a thread pool as it loads (2-vCPU Xeon).  The pin
# is set on import, before any handler imports numpy, and not in main(),
# which a caller may reach after loading numpy itself; a value the user
# set stays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each handler imports the library names it runs, so a subcommand loads
# only its own modules (``walk``: rng, collatz and stochastic; ``zeta``:
# zeta; ``mertens``: rng and mobius) and the parser loads none.


class _Banner(argparse.Action):
    """``--version``: print the banner on one line, whatever the terminal
    width, and exit.  It is built only when asked for."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .parity import ESTIMATOR_ID
        from .zeta import Z_CORRECTION_ORDER

        print(
            f"conjlab {__version__} "
            f"(estimator={ESTIMATOR_ID}; riemann-siegel-correction=C{Z_CORRECTION_ORDER}; "
            f"theta-series=t^-3)"
        )
        parser.exit()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)  # str of a float is its repr


def _emit(fields: tuple[str, ...], rows, fmt: str) -> None:
    if fmt == "jsonl":
        import json
    for row in rows:
        if fmt == "csv":
            print(",".join(_fmt(v) for v in row))
        else:
            print(json.dumps(dict(zip(fields, row))))


def _records(recs, fmt: str, names=None) -> None:
    """One row per dataclass record, its fields in declaration order; ``names``
    renames the leading fields by position and keeps only that many."""
    for rec in recs:
        fields = tuple(f.name for f in dataclasses.fields(rec))
        keys = names or fields
        _emit(keys, [[getattr(rec, f) for f in fields[: len(keys)]]], fmt)


def _cmd_collatz_verify(args) -> int:
    from .collatz import DEFAULT_CHUNK_SIZE, verify_range

    rep = verify_range(
        args.lo,
        args.hi,
        args.budget,
        args.floor,
        chunk_size=DEFAULT_CHUNK_SIZE if args.chunk_size is None else args.chunk_size,
        workers=args.workers,
    )
    print(
        f"chunks={rep.chunk_count} wall={rep.wall_time:.3f}s",
        file=sys.stderr,
    )
    if args.format == "jsonl":
        print(rep.to_json())
    else:
        # summary line, then one line per candidate
        print(
            f"{rep.lo},{rep.hi},{rep.verified_count},"
            f"{len(rep.counterexample_candidates)},{rep.max_stopping_time_seen}"
        )
        _records(rep.counterexample_candidates, "csv")
    return 1 if rep.counterexample_candidates else 0


def _cmd_collatz_trajectory(args) -> int:
    from .collatz import trajectory

    traj = trajectory(args.n, args.max_steps)
    if args.format == "jsonl":
        _records([traj], "jsonl")
    else:
        _emit(
            ("step", "value", "parity"),
            [(i, v, p) for i, (v, p) in enumerate(zip(traj.iterates, traj.parities))],
            "csv",
        )
    return 1 if traj.truncated else 0


def _cmd_collatz_stopping(args) -> int:
    from .collatz import total_stopping_time

    rec = total_stopping_time(args.n, args.budget)
    if rec is None:
        print(f"budget {args.budget} exhausted before n={args.n} reached 1", file=sys.stderr)
        return 1
    _records([rec], args.format)
    return 0


def _cmd_parity_extract(args) -> int:
    from .parity import parity_vector

    x = parity_vector(args.n, args.k)
    _emit(("n", "k", "bits"), [(args.n, args.k, x.to_bitstring())], args.format)
    return 0


def _cmd_parity_realize(args) -> int:
    from .parity import realize

    _records([realize(args.bits)], args.format)
    return 0


def _cmd_parity_bijection(args) -> int:
    from .parity import bijection_check

    ok = bijection_check(args.k)
    _emit(("k", "ok"), [(args.k, ok)], args.format)
    return 0 if ok else 1


def _cmd_parity_score(args) -> int:
    from .parity import description_length_estimate, parity_vector

    if args.bits is not None:
        x = args.bits
    elif args.n is not None and args.k is not None:
        x = parity_vector(args.n, args.k)
    else:
        raise ValueError("provide --bits, or both --n and --k")
    s = description_length_estimate(x)
    print(f"estimator={s.estimator} overhead_bits={s.overhead_bits}", file=sys.stderr)
    _records([s], args.format, ("length", "estimate", "deficiency"))
    return 0


def _cmd_parity_fraction(args) -> int:
    from .parity import estimator_overhead, random_fraction

    threshold = args.threshold if args.threshold is not None else estimator_overhead(args.k)
    frac = random_fraction(
        args.k, args.samples, args.seed, threshold, workers=args.workers
    )
    _emit(
        ("k", "samples", "threshold", "fraction"),
        [(args.k, args.samples, threshold, frac)],
        args.format,
    )
    return 0


def _cmd_walk_simulate(args) -> int:
    from .stochastic import WalkConfig, expected_step_drift, heuristic_walk

    summary = heuristic_walk(
        WalkConfig(trials=args.trials, steps=args.steps, seed=args.seed, p_odd=args.p_odd),
        workers=args.workers,
    )
    print(f"expected_step_drift={expected_step_drift(args.p_odd)!r}", file=sys.stderr)
    _records([summary], args.format)
    return 0


def _cmd_walk_empirical(args) -> int:
    from .stochastic import empirical_parity_frequency

    freq = empirical_parity_frequency(args.lo, args.count, args.k)
    _emit(
        ("lo", "count", "k", "frequency"),
        [(args.lo, args.count, args.k, freq)],
        args.format,
    )
    return 0


def _cmd_mertens_sieve(args) -> int:
    from .mobius import _validate_limit, mobius_sieve

    _validate_limit(args.limit)
    if args.head is not None and args.head < 0:
        raise ValueError("head must be non-negative")
    upto = args.limit if args.head is None else min(args.head, args.limit)
    table = mobius_sieve(max(upto, 1))  # mu(n) does not depend on --limit
    _emit(
        ("n", "mu"),
        ((n, int(table.values[n])) for n in range(1, upto + 1)),
        args.format,
    )
    return 0


def _cmd_mertens_series(args) -> int:
    from .mobius import _validate_limit, mertens

    _validate_limit(args.limit)
    at = str(args.limit) if args.at is None else args.at
    points = [int(s) for s in at.split(",") if s.strip()]
    for n in points:
        if not 1 <= n <= args.limit:
            raise ValueError(f"--at value {n} outside [1, {args.limit}]")
    series = mertens(max(points, default=1))  # nor does M(n)
    _emit(
        ("n", "M"),
        [(n, int(series.partial_sums[n])) for n in points],
        args.format,
    )
    return 0


def _cmd_mertens_growth(args) -> int:
    from .mobius import _growth_stream

    g = _growth_stream(args.limit, args.epsilon)
    _records([g], args.format, ("epsilon", "sup", "argmax"))
    return 0


def _cmd_mertens_compare(args) -> int:
    from .mobius import random_walk_compare

    c = random_walk_compare(args.limit, args.trials, args.seed, workers=args.workers)
    names = [f.name for f in dataclasses.fields(c)]
    _records([c], args.format, ("n", *names[1:]))
    return 0


def _cmd_zeta_theta(args) -> int:
    from .zeta import theta_value

    _records([theta_value(args.t)], args.format)
    return 0


def _cmd_zeta_z(args) -> int:
    from .zeta import z_function

    _records([z_function(args.t)], args.format)
    return 0


def _cmd_zeta_scan(args) -> int:
    from .zeta import sign_changes

    _records(sign_changes(args.lo, args.hi, args.step), args.format)
    return 0


def _cmd_zeta_count(args) -> int:
    from .zeta import zero_count_analytic

    count = zero_count_analytic(args.at)
    _emit(("T", "count"), [(args.at, count)], args.format)
    return 0


def _cmd_zeta_refine(args) -> int:
    from .zeta import zeros_in

    zs = zeros_in(args.lo, args.hi, args.step, args.tol)
    _emit(("index", "t"), [(i + 1, z) for i, z in enumerate(zs)], args.format)
    return 0


def _cmd_zeta_verify(args) -> int:
    from .zeta import verify_rh

    rep = verify_rh(args.T, args.step, args.max_refinements)
    _records([rep], args.format)
    return 0 if rep.verified else 1


def _collatz_commands(sub, fmt) -> None:
    c = sub.add_parser("verify", parents=[fmt], help="sweep a range under a step budget")
    c.add_argument("--lo", type=int, required=True)
    c.add_argument("--hi", type=int, required=True)
    c.add_argument("--budget", type=int, required=True)
    c.add_argument("--floor", type=int, default=None, help="pre-verified cutoff")
    c.add_argument("--chunk-size", type=int, default=None)
    c.add_argument("--workers", type=int, default=1)
    c.set_defaults(func=_cmd_collatz_verify)

    c = sub.add_parser("trajectory", parents=[fmt], help="orbit of one start")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--max-steps", type=int, required=True)
    c.set_defaults(func=_cmd_collatz_trajectory)

    c = sub.add_parser("stopping-time", parents=[fmt], help="steps to reach 1")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--budget", type=int, required=True)
    c.set_defaults(func=_cmd_collatz_stopping)


def _parity_commands(sub, fmt) -> None:
    c = sub.add_parser("extract", parents=[fmt], help="first k orbit parities")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_parity_extract)

    c = sub.add_parser("realize", parents=[fmt], help="residue realizing a parity vector")
    c.add_argument("--bits", type=str, required=True)
    c.set_defaults(func=_cmd_parity_realize)

    c = sub.add_parser("bijection", parents=[fmt], help="exhaustive residue/vector check")
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_parity_bijection)

    c = sub.add_parser("score", parents=[fmt], help="two-part description length")
    c.add_argument("--bits", type=str, default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--k", type=int, default=None)
    c.set_defaults(func=_cmd_parity_score)

    c = sub.add_parser("fraction", parents=[fmt], help="incompressible fraction of random vectors")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--threshold", type=int, default=None)
    c.add_argument("--workers", type=int, default=1)
    c.set_defaults(func=_cmd_parity_fraction)


def _walk_commands(sub, fmt) -> None:
    c = sub.add_parser("simulate", parents=[fmt], help="log-space drift simulation")
    c.add_argument("--trials", type=int, required=True)
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--p-odd", type=float, default=0.5)
    c.add_argument("--workers", type=int, default=1)
    c.set_defaults(func=_cmd_walk_simulate)

    c = sub.add_parser("empirical", parents=[fmt], help="observed odd-step frequency")
    c.add_argument("--lo", type=int, required=True)
    c.add_argument("--count", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_walk_empirical)


def _mertens_commands(sub, fmt) -> None:
    c = sub.add_parser("sieve", parents=[fmt], help="mu values")
    c.add_argument("--limit", type=int, required=True)
    c.add_argument("--head", type=int, default=None, help="print only the first H values")
    c.set_defaults(func=_cmd_mertens_sieve)

    c = sub.add_parser("series", parents=[fmt], help="Mertens partial sums")
    c.add_argument("--limit", type=int, required=True)
    c.add_argument("--at", type=str, default=None, help="comma-separated sample points")
    c.set_defaults(func=_cmd_mertens_series)

    c = sub.add_parser("growth", parents=[fmt], help="sup |M(n)| / n^(1/2+eps)")
    c.add_argument("--limit", type=int, required=True)
    c.add_argument("--epsilon", type=float, required=True)
    c.set_defaults(func=_cmd_mertens_growth)

    c = sub.add_parser("compare", parents=[fmt], help="rank against +-1 random walks")
    c.add_argument("--limit", type=int, required=True)
    c.add_argument("--trials", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--workers", type=int, default=1)
    c.set_defaults(func=_cmd_mertens_compare)


def _zeta_commands(sub, fmt) -> None:
    c = sub.add_parser("theta", parents=[fmt], help="phase function")
    c.add_argument("--t", type=float, required=True)
    c.set_defaults(func=_cmd_zeta_theta)

    c = sub.add_parser("z", parents=[fmt], help="Z(t) via main sum + first correction")
    c.add_argument("--t", type=float, required=True)
    c.set_defaults(func=_cmd_zeta_z)

    c = sub.add_parser("scan", parents=[fmt], help="sign-change brackets on a grid")
    c.add_argument("--lo", type=float, required=True)
    c.add_argument("--hi", type=float, required=True)
    c.add_argument("--step", type=float, default=0.05)
    c.set_defaults(func=_cmd_zeta_scan)

    c = sub.add_parser("count", parents=[fmt], help="analytic zero count up to T")
    c.add_argument("--at", type=float, required=True, metavar="T")
    c.set_defaults(func=_cmd_zeta_count)

    c = sub.add_parser("refine", parents=[fmt], help="bisected zero ordinates")
    c.add_argument("--lo", type=float, required=True)
    c.add_argument("--hi", type=float, required=True)
    c.add_argument("--step", type=float, default=0.05)
    c.add_argument("--tol", type=float, default=1e-9)
    c.set_defaults(func=_cmd_zeta_refine)

    c = sub.add_parser("verify", parents=[fmt], help="sign changes vs analytic count")
    c.add_argument("--T", type=float, required=True)
    c.add_argument("--step", type=float, default=0.05)
    c.add_argument("--max-refinements", type=int, default=3)
    c.set_defaults(func=_cmd_zeta_verify)


# group -> (help, adds its subcommands)
_GROUPS = {
    "collatz": ("accelerated map and range verification", _collatz_commands),
    "parity": ("parity vectors, realization, compressibility", _parity_commands),
    "walk": ("multiplicative random-walk heuristic", _walk_commands),
    "mertens": ("Mobius sieve and Mertens growth", _mertens_commands),
    "zeta": ("Riemann-Siegel Z and zero verification", _zeta_commands),
}


def build_parser(built=tuple(_GROUPS)) -> argparse.ArgumentParser:
    """The parser with every group, and the subcommands of the groups in
    ``built`` (default: all).  Top-level help and errors, and those of a
    built group and its subcommands, do not depend on ``built``."""
    p = argparse.ArgumentParser(prog="conjlab", description=__doc__)
    p.add_argument(
        "--version",
        action=_Banner,
        nargs=0,
        default=argparse.SUPPRESS,
        help="show program's version number and exit",
    )
    groups = p.add_subparsers(dest="group", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="output record format"
    )
    for name, (about, add_commands) in _GROUPS.items():
        g = groups.add_parser(name, help=about)
        if name in built:
            add_commands(g.add_subparsers(dest="command", required=True), fmt)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top level takes no option values, so argparse dispatches to the
    # first group name in argv; only that group's subcommands are built
    # (none for --version or --help).
    group = next((a for a in argv if a in _GROUPS), None)
    args = build_parser(() if group is None else (group,)).parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.func(args)
        except (ValueError, MemoryError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def console_main() -> None:
    """Entry point of ``conjlab`` and ``python -m conjlab.cli``.

    Runs :func:`main`, flushes stdout and stderr and ends the process with
    ``os._exit``, skipping interpreter teardown, which writes nothing and
    took about 20 ms once numpy was loaded (2-vCPU Xeon).  No atexit
    handler is left to run: ``rng._pmap`` joins its threads before
    :func:`main` returns.  A closed pipe ends the run with status 1 and
    no traceback; any other exception propagates with its traceback.
    """
    try:
        status = main()
    except SystemExit as e:  # argparse: --help, --version, usage errors
        status = e.code
    except BrokenPipeError:
        status = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            status = 1
    os._exit(status)


if __name__ == "__main__":
    console_main()
