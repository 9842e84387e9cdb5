import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_pins import PINS, REALIZED, child, expect, formats, in_process, observe, round_trip
from conjlab import cli, mobius

_CMD = [sys.executable, "-m", "conjlab.cli"]
_PINS = {p.argv: p for p in PINS}
BANNER = _PINS["--version"].csv


def test_version_banner():
    # the pinned banner names what the library modules run, so a change of
    # estimator or Z correction cannot leave the banner behind
    from conjlab import __version__, parity, zeta

    assert observe(_PINS["--version"], "csv", in_process) == expect(_PINS["--version"], "csv")
    assert BANNER.startswith(f"conjlab {__version__} (")
    assert f"estimator={parity.ESTIMATOR_ID};" in BANNER
    assert f"riemann-siegel-correction=C{zeta.Z_CORRECTION_ORDER};" in BANNER


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
    # nor dataclasses, which only the record printers import
    code = (
        "import contextlib, io, sys, conjlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):\n"
        "    conjlab.cli.main(['--version'])\n"
        "assert out.getvalue().startswith('conjlab '), out.getvalue()\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'conjlab.'))))\n"
        "print('dataclasses' in sys.modules)"
    )
    assert _child(code) == "['conjlab.cli']\nFalse\n"


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


def test_pinned_jsonl_is_strict_json():
    # RFC 8259 has no Infinity or NaN; json.loads reads them only through
    # parse_constant
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    lines = [line for p in PINS if p.jsonl and not p.jsonl.startswith("sha256:")
             for line in p.jsonl.splitlines()]
    assert '{"epsilon": "inf", "sup": 0.0, "argmax": 2}' in lines
    for line in lines:
        json.loads(line, parse_constant=reject)


def test_extracted_parity_vector_realizes_its_start():
    assert round_trip(in_process) == REALIZED


def test_cli_pins_are_the_one_table_of_output_pins():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text().splitlines()
    assert not [line for line in lines if 'test "$(conjlab' in line or ("conjlab " in line and "rc=" in line)]
    assert len(_PINS) == len(PINS), "two rows share an argv"


# Rows that also run through ``python -m conjlab.cli``.
_ENTRY = [
    "zeta verify --T 100 --step 0.05",
    "zeta verify --T 30 --max-refinements 1",
    "collatz verify --lo 5 --hi 1 --budget 10",
    "zeta theta",
    "--version",
]


@pytest.mark.parametrize("argv", _ENTRY, ids=[" ".join(a.split()[:2]) for a in _ENTRY])
def test_entry_point_streams_and_status(argv):
    pin = _PINS[argv]
    assert observe(pin, "csv", child(_CMD)) == expect(pin, "csv")


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


def test_import_loads_neither_numpy_random_nor_threads():
    code = (
        "import sys, conjlab.cli; "
        "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
