import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_pins import PINS, REALIZED, expect, formats, in_process, observe, round_trip
from conjlab import cli, mobius

_CMD = [sys.executable, "-m", "conjlab.cli"]


def run(*args):
    return subprocess.run(
        _CMD + [str(a) for a in args], capture_output=True, text=True, timeout=300
    )


_PINS = {p.argv: p for p in PINS}
BANNER = _PINS["--version"].csv


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_version_banner_is_one_line_at_any_width(columns):
    r = subprocess.run(
        _CMD + ["--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "COLUMNS": columns},
    )
    assert r.returncode == 0
    assert r.stdout == BANNER
    assert r.stderr == ""


def _child(code: str, env=None) -> str:
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_import_conjlab_loads_no_module_and_no_numpy():
    code = (
        "import sys, conjlab; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'conjlab.'))))"
    )
    assert _child(code) == "[]\n"


def test_version_loads_no_module_and_no_numpy():
    code = (
        "import contextlib, io, sys, conjlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):\n"
        "    conjlab.cli.main(['--version'])\n"
        "assert out.getvalue().startswith('conjlab '), out.getvalue()\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'conjlab.'))))"
    )
    assert _child(code) == "['conjlab.cli']\n"


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (
            ["walk", "empirical", "--lo", "1099511627776", "--count", "100", "--k", "64"],
            ["cli", "collatz", "rng", "stochastic"],
        ),
        (["walk", "simulate", "--trials", "3", "--steps", "10"], ["cli", "collatz", "rng", "stochastic"]),
        (["zeta", "z", "--t", "100"], ["cli", "zeta"]),
        (["mertens", "growth", "--limit", "1000", "--epsilon", "0"], ["cli", "mobius", "rng"]),
        (["mertens", "compare", "--limit", "1000", "--trials", "2"], ["cli", "mobius", "rng"]),
    ],
    ids=lambda a: " ".join(a[:2]),
)
def test_a_subcommand_loads_only_its_own_modules(argv, loaded):
    code = (
        "import contextlib, io, sys, conjlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert conjlab.cli.main({argv!r}) == 0\n"
        "print(sorted(m[8:] for m in sys.modules if m.startswith('conjlab.')))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    assert _child(code) == f"{sorted(loaded)}\n{'zeta' in loaded}\n"


def test_cli_pins_openblas_to_one_thread_unless_the_user_set_it():
    code = (
        "import os, sys, conjlab.cli; "
        "assert 'numpy' not in sys.modules; "
        "print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _child(code, env) == "1\n"
    assert _child(code, {**env, "OPENBLAS_NUM_THREADS": "3"}) == "3\n"


# Every row of tests/cli_pins.py, in each format it pins, run in process.
_CASES = [(p, f) for p in PINS for f in formats(p)]


def _format_named(argv):
    # the csv run names its format here; CI's run through the installed
    # script leaves it to the default
    return in_process(argv if "--format" in argv else argv + ["--format", "csv"])


@pytest.mark.parametrize("pin,fmt", _CASES, ids=[f"{p.argv}-{f}" for p, f in _CASES])
def test_golden_stdout(pin, fmt):
    assert observe(pin, fmt, _format_named) == expect(pin, fmt)


def _rows(*argvs):
    """A test of the table's rows for these argvs, run in process.  Tests
    that pinned one invocation each keep their names this way."""

    def test():
        for pin in (_PINS[a] for a in argvs):
            for fmt in formats(pin):
                assert observe(pin, fmt, in_process) == expect(pin, fmt), (pin.argv, fmt)

    return test


_WALK = "walk simulate --trials 32 --steps 2000 --seed 11"
_COMPARE = "mertens compare --limit 2000 --trials 8 --seed 3"
test_version_banner = _rows("--version")
test_collatz_verify_summary = _rows("collatz verify --lo 1 --hi 1000 --budget 1000")
test_collatz_verify_candidates_exit_1 = _rows("collatz verify --lo 27 --hi 27 --budget 5")
test_collatz_verify_jsonl = _rows("collatz verify --lo 1 --hi 100 --budget 500")
test_collatz_trajectory = _rows("collatz trajectory --n 5 --max-steps 100")
test_collatz_trajectory_truncated_exit_1 = _rows("collatz trajectory --n 27 --max-steps 3")
test_collatz_stopping_time = _rows("collatz stopping-time --n 27 --budget 1000")
test_collatz_stopping_time_budget_exhausted = _rows("collatz stopping-time --n 27 --budget 5")
test_parity_extract = _rows("parity extract --n 7 --k 3")
test_parity_realize_pinned = _rows("parity realize --bits 111")
test_parity_bijection = _rows("parity bijection --k 8")
test_parity_score = _rows("parity score --bits " + "0" * 1024)
test_parity_score_from_orbit = _rows("parity score --n 27 --k 64")
test_parity_score_requires_input = _rows("parity score")
test_parity_fraction = _rows("parity fraction --k 8 --samples 256 --seed 1 --threshold 0")
test_parity_fraction_negative_k_exits_2 = _rows("parity fraction --k -3 --samples 4 --threshold 5")
test_walk_simulate_deterministic = _rows(_WALK, _WALK + " --workers 8")
test_walk_empirical = _rows("walk empirical --lo 1 --count 1 --k 2")
test_mertens_sieve_head = _rows("mertens sieve --limit 100 --head 4")
test_mertens_series_at = _rows("mertens series --limit 10000 --at 10,100,10000")
test_mertens_series_at_out_of_range = _rows("mertens series --limit 100 --at 101")
test_mertens_growth = _rows("mertens growth --limit 10000 --epsilon 0.0")
test_mertens_compare_deterministic = _rows(_COMPARE, _COMPARE + " --workers 8")
test_zeta_theta = _rows("zeta theta --t 30.0")
test_zeta_z_terms = _rows("zeta z --t 100.0")
test_zeta_scan = _rows("zeta scan --lo 10.0 --hi 30.0 --step 0.05")
test_zeta_count_warning_to_stderr = _rows("zeta count --at 30.0", "zeta count --at 100.0")
test_zeta_refine = _rows("zeta refine --lo 10.0 --hi 26.0 --step 0.05")
test_zeta_verify_pinned = _rows("zeta verify --T 100.0 --step 0.05")
test_zeta_verify_deficit_exit_1 = _rows("zeta verify --T 30.0 --step 0.05 --max-refinements 1")
test_jsonl_format = _rows("zeta verify --T 100.0", "parity realize --bits 111")
test_usage_errors_exit_2 = _rows("collatz verify --lo 1", "nonsense", "zeta unknowncmd")
test_repeat_runs_byte_identical = _rows(
    "parity fraction --k 64 --samples 16 --seed 9",
    "walk simulate --trials 8 --steps 500 --seed 2",
    "collatz verify --lo 1 --hi 5000 --budget 500",
)


@pytest.mark.parametrize("args", [p.argv.split() for p in PINS if p.err.startswith("error: ")])
def test_domain_errors_exit_2(args):
    # a domain error prints no data and exactly one line on stderr
    status, out, err = in_process(args)
    assert (status, out, err.count("\n")) == (2, "", 1) and err.startswith("error: ")


def test_extracted_parity_vector_realizes_its_start():
    assert round_trip(in_process) == REALIZED


def test_cli_pins_are_the_one_table_of_output_pins():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert 'test "$(conjlab' not in workflow.read_text()
    assert len(_PINS) == len(PINS), "two rows share an argv"


# The entry point's outcomes, byte for byte: (argv, exit code, stdout, stderr).
_ENTRY = [
    (("zeta", "verify", "--T", 100, "--step", 0.05), 0, "100.0,29,29,true,31\n", ""),
    (
        ("zeta", "verify", "--T", 30, "--max-refinements", 1),
        1,
        "30.0,3,4,false,260\n",
        "warning: theta(30.0)/pi + 1 = 3.564877 is within 0.3 of a half-integer; "
        "the rounded count may be off by one\n",
    ),
    (("collatz", "verify", "--lo", 5, "--hi", 1, "--budget", 10), 2, "", "error: range is empty: hi < lo\n"),
    (
        ("zeta", "theta"),
        2,
        "",
        "usage: conjlab zeta theta [-h] [--format {csv,jsonl}] --t T\n"
        "conjlab zeta theta: error: the following arguments are required: --t\n",
    ),
    (("--version",), 0, BANNER, ""),
]


@pytest.mark.parametrize("argv,code,out,err", _ENTRY, ids=[" ".join(map(str, e[0][:2])) for e in _ENTRY])
def test_entry_point_streams_and_status(argv, code, out, err):
    r = subprocess.run(
        _CMD + [str(a) for a in argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)


def test_entry_point_help_is_the_full_parsers(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    r = subprocess.run(_CMD + ["--help"], capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, cli.build_parser().format_help(), "")


def _help_and_errors(argv, parse, capsys):
    try:
        parse(argv)
    except SystemExit as e:
        return e.code, *capsys.readouterr()
    raise AssertionError(f"{argv} did not exit")


def test_help_and_usage_errors_equal_the_full_parsers(capsys):
    # main builds only the invoked group's subcommands; every help and usage
    # text must equal that of the parser built with every group
    full = cli.build_parser()
    (groups,) = (a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    cases = [["-h"], [], ["nonsense"]]
    for name, group in groups.choices.items():
        cases += [[name, "-h"], [name], [name, "nonsense"]]
        (commands,) = (a for a in group._actions if isinstance(a, argparse._SubParsersAction))
        cases += [[name, command, "-h"] for command in commands.choices]
    assert len(cases) == 3 + 5 * 3 + 20
    for argv in cases:
        got = _help_and_errors(argv, cli.main, capsys)
        assert got == _help_and_errors(argv, cli.build_parser().parse_args, capsys), argv
        assert got[0] in (0, 2) and got[1] + got[2]


def test_from_conjlab_import_cli_loads_no_library_module():
    code = (
        "import sys; from conjlab import cli; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'conjlab.'))))"
    )
    assert _child(code) == "['conjlab.cli']\n"


def test_a_closed_pipe_ends_quietly_with_status_1():
    # 1.3 MB of output cannot fit the pipe, so the child is still writing
    # when the reader closes after one line
    proc = subprocess.Popen(
        _CMD + ["mertens", "sieve", "--limit", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"1,1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_an_unexpected_exception_keeps_its_traceback():
    code = "import conjlab.cli as c; c.main = lambda: 1 / 0; c.console_main()"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("Traceback") and r.stderr.endswith("ZeroDivisionError: division by zero\n")


@pytest.mark.parametrize(
    "argv,sieved",
    [
        (["mertens", "sieve", "--limit", "100000000", "--head", "4"], 4),
        (["mertens", "sieve", "--limit", "30"], 30),
        (["mertens", "sieve", "--limit", "100000000", "--head", "0"], 1),
        (["mertens", "series", "--limit", "100000000", "--at", "10,100"], 100),
        (["mertens", "series", "--limit", "30"], 30),
    ],
)
def test_mertens_sieves_only_as_far_as_printed(argv, sieved, monkeypatch, capsys):
    limits = []

    def recording(fn):
        def wrapper(limit, *args, **kwargs):
            limits.append(limit)
            assert limit <= 1000, "sieved past what is printed"
            return fn(limit, *args, **kwargs)

        return wrapper

    # each handler looks its library names up in the module when it runs
    monkeypatch.setattr(mobius, "mobius_sieve", recording(mobius.mobius_sieve))
    monkeypatch.setattr(mobius, "mertens", recording(mobius.mertens))
    assert cli.main(argv) == 0
    assert limits == [sieved]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "theta", "--t", "inf"],
        ["zeta", "z", "--t", "inf"],
        ["zeta", "scan", "--lo", "20", "--hi", "inf"],
        ["zeta", "refine", "--lo", "20", "--hi", "inf"],
        ["zeta", "count", "--at", "inf"],
        ["zeta", "verify", "--T", "inf"],
    ],
    ids=lambda a: a[1],
)
def test_infinite_t_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


def test_import_loads_neither_numpy_random_nor_threads():
    code = (
        "import sys, conjlab.cli; "
        "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_z_above_its_calibrated_range_exits_2_quietly():
    r = run("zeta", "z", "--t", "1e300")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: t must be <= 30000;")
    assert r.stderr.count("\n") == 1 and "Warning" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [("zeta", "theta", "--t", "1e100"), ("zeta", "count", "--at", "1e200")],
    ids=lambda a: a[1],
)
def test_theta_above_its_float64_range_exits_2_quietly(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: t must be <= 1e+15;")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "scan", "--lo", "20", "--hi", "4e4"],
        ["zeta", "refine", "--lo", "20", "--hi", "4e4"],
        ["zeta", "verify", "--T", "4e4"],
    ],
    ids=lambda a: a[1],
)
def test_z_above_its_calibrated_range_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: t must be <= 30000;") and err.count("\n") == 1


def test_mertens_growth_nan_epsilon_exits_2():
    r = run("mertens", "growth", "--limit", 1000, "--epsilon", "nan")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: epsilon must be non-negative\n"


def test_mertens_growth_epsilon_past_float_range_exits_2_quietly():
    r = run("mertens", "growth", "--limit", 200000, "--epsilon", 1000)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: epsilon 1000.0 too large:")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "epsilon,out",
    [
        ("50", "50.0,8.0422327278822955e-25,3\n"),
        ("600", "600.0,3.080963411729999e-287,3\n"),
        ("inf", "inf,0.0,2\n"),
    ],
)
def test_mertens_growth_large_epsilon_prints_no_warning(epsilon, out, capsys):
    assert cli.main(["mertens", "growth", "--limit", "200000", "--epsilon", epsilon]) == 0
    assert capsys.readouterr() == (out, "")


def test_mertens_sieve_negative_head_exits_2():
    r = run("mertens", "sieve", "--limit", 5, "--head", -3)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: head must be non-negative\n"


@pytest.mark.parametrize("step", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "scan", "--lo", "10", "--hi", "30"],
        ["zeta", "refine", "--lo", "10", "--hi", "30"],
        ["zeta", "verify", "--T", "100"],
    ],
    ids=lambda a: a[1],
)
def test_non_finite_grid_step_exits_2_quietly(argv, step, capsys):
    assert cli.main(argv + ["--step", step]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid_step must be positive and finite\n"


def test_non_finite_grid_step_through_the_entry_point():
    r = run("zeta", "scan", "--lo", "10", "--hi", "30", "--step", "inf")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: grid_step must be positive and finite\n"


def test_grid_too_fine_to_allocate_exits_2(capsys):
    # 3e16 grid points: numpy refuses the 213 PiB at once and allocates nothing
    assert cli.main(["zeta", "scan", "--lo", "10", "--hi", "30000", "--step", "1e-12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "PiB" in err


@pytest.mark.parametrize("step", ["1e-310", "5e-324"])
def test_grid_step_too_small_to_count_exits_2(step, capsys):
    assert cli.main(["zeta", "scan", "--lo", "10", "--hi", "30000", "--step", step]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid_step is too small: the grid's point count overflows\n"
