import argparse
import json
import os
import subprocess
import sys

import pytest

from conjlab import cli, mobius

_CMD = [sys.executable, "-m", "conjlab.cli"]


def run(*args):
    return subprocess.run(
        _CMD + [str(a) for a in args], capture_output=True, text=True, timeout=300
    )


def test_version_banner():
    r = run("--version")
    assert r.returncode == 0
    assert "twopart-gamma+lz77/m16" in r.stdout
    assert "C2" in r.stdout


BANNER = (
    "conjlab 0.1.0 (estimator=twopart-gamma+lz77/m16; "
    "riemann-siegel-correction=C2; theta-series=t^-3)\n"
)


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


def test_collatz_verify_summary():
    r = run("collatz", "verify", "--lo", 1, "--hi", 1000, "--budget", 1000)
    assert r.returncode == 0
    assert r.stdout == "1,1000,1000,0,113\n"
    assert "chunks=" in r.stderr


def test_collatz_verify_candidates_exit_1():
    r = run("collatz", "verify", "--lo", 27, "--hi", 27, "--budget", 5)
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["27,27,0,1,0", "27,5,71"]


def test_collatz_verify_jsonl():
    r = run("collatz", "verify", "--lo", 1, "--hi", 100, "--budget", 500,
            "--format", "jsonl")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["verified_count"] == 100
    assert rep["counterexample_candidates"] == []


def test_collatz_trajectory():
    r = run("collatz", "trajectory", "--n", 5, "--max-steps", 100)
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["0,5,1", "1,8,0", "2,4,0", "3,2,0", "4,1,1"]


def test_collatz_trajectory_truncated_exit_1():
    r = run("collatz", "trajectory", "--n", 27, "--max-steps", 3)
    assert r.returncode == 1


def test_collatz_stopping_time():
    r = run("collatz", "stopping-time", "--n", 27, "--budget", 1000)
    assert r.returncode == 0
    assert r.stdout == "27,70,4616\n"


def test_collatz_stopping_time_budget_exhausted():
    r = run("collatz", "stopping-time", "--n", 27, "--budget", 5)
    assert r.returncode == 1
    assert r.stdout == ""
    assert "budget" in r.stderr


def test_parity_extract():
    r = run("parity", "extract", "--n", 7, "--k", 3)
    assert r.stdout == "7,3,111\n"


def test_parity_realize_pinned():
    r = run("parity", "realize", "--bits", "111")
    assert r.returncode == 0
    assert r.stdout == "3,7,7\n"


def test_parity_bijection():
    r = run("parity", "bijection", "--k", 8)
    assert r.returncode == 0
    assert r.stdout == "8,true\n"


def test_parity_score():
    r = run("parity", "score", "--bits", "0" * 1024)
    assert r.returncode == 0
    assert r.stdout == "1024,45,979\n"
    assert "estimator=twopart-gamma+lz77/m16" in r.stderr


def test_parity_score_from_orbit():
    r = run("parity", "score", "--n", 27, "--k", 64)
    assert r.returncode == 0
    length, estimate, deficiency = map(int, r.stdout.split(","))
    assert length == 64
    assert deficiency == length - estimate


def test_parity_score_requires_input():
    r = run("parity", "score")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_parity_fraction():
    r = run("parity", "fraction", "--k", 8, "--samples", 256, "--seed", 1,
            "--threshold", 0)
    assert r.returncode == 0
    assert r.stdout == "8,256,0,1.0\n"


def test_walk_simulate_deterministic():
    args = ("walk", "simulate", "--trials", 32, "--steps", 2000, "--seed", 11)
    a = run(*args)
    b = run(*args, "--workers", 8)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "expected_step_drift=" in a.stderr
    fields = a.stdout.strip().split(",")
    assert fields[0] == "32" and fields[1] == "2000"


def test_walk_empirical():
    r = run("walk", "empirical", "--lo", 1, "--count", 1, "--k", 2)
    assert r.stdout == "1,1,2,0.5\n"


def test_mertens_sieve_head():
    r = run("mertens", "sieve", "--limit", 100, "--head", 4)
    assert r.stdout.splitlines() == ["1,1", "2,-1", "3,-1", "4,0"]


def test_mertens_series_at():
    r = run("mertens", "series", "--limit", 10000, "--at", "10,100,10000")
    assert r.stdout.splitlines() == ["10,-1", "100,1", "10000,-23"]


def test_mertens_series_at_out_of_range():
    r = run("mertens", "series", "--limit", 100, "--at", "101")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_mertens_growth():
    r = run("mertens", "growth", "--limit", 10000, "--epsilon", 0.0)
    assert r.stdout == "0.0,0.8944271909999159,5\n"


def test_mertens_compare_deterministic():
    args = ("mertens", "compare", "--limit", 2000, "--trials", 8, "--seed", 3)
    a = run(*args)
    b = run(*args, "--workers", 8)
    assert a.stdout == b.stdout
    assert a.stdout.startswith("2000,8,")


def test_zeta_theta():
    r = run("zeta", "theta", "--t", 30.0)
    t, th, err = r.stdout.strip().split(",")
    assert t == "30.0"
    assert abs(float(th) - 8.057800136548158) < 1e-12
    assert float(err) > 0


def test_zeta_z_terms():
    r = run("zeta", "z", "--t", 100.0)
    fields = r.stdout.strip().split(",")
    assert fields[0] == "100.0"
    assert fields[2] == "3"


def test_zeta_scan():
    r = run("zeta", "scan", "--lo", 10.0, "--hi", 30.0, "--step", 0.05)
    lines = r.stdout.splitlines()
    assert len(lines) == 3
    lo0, hi0 = map(float, lines[0].split(","))
    assert lo0 < 14.134725 < hi0


def test_zeta_count_warning_to_stderr():
    r = run("zeta", "count", "--at", 30.0)
    assert r.returncode == 0
    assert r.stdout == "30.0,4\n"
    assert "warning:" in r.stderr
    clean = run("zeta", "count", "--at", 100.0)
    assert clean.stdout == "100.0,29\n"
    assert clean.stderr == ""


def test_zeta_refine():
    r = run("zeta", "refine", "--lo", 10.0, "--hi", 26.0, "--step", 0.05)
    lines = r.stdout.splitlines()
    assert len(lines) == 3
    idx, t = lines[0].split(",")
    assert idx == "1"
    assert abs(float(t) - 14.134725) < 1e-3


def test_zeta_verify_pinned():
    r = run("zeta", "verify", "--T", 100.0, "--step", 0.05)
    assert r.returncode == 0
    assert r.stdout == "100.0,29,29,true,31\n"


def test_zeta_verify_deficit_exit_1():
    r = run("zeta", "verify", "--T", 30.0, "--step", 0.05, "--max-refinements", 1)
    assert r.returncode == 1
    assert r.stdout.startswith("30.0,3,4,false,")


def test_jsonl_format():
    r = run("zeta", "verify", "--T", 100.0, "--format", "jsonl")
    rep = json.loads(r.stdout)
    assert rep == {
        "T": 100.0,
        "sign_change_count": 29,
        "analytic_count": 29,
        "verified": True,
        "z_evaluations": 31,
    }
    r = run("parity", "realize", "--bits", "111", "--format", "jsonl")
    assert json.loads(r.stdout) == {"k": 3, "residue": 7, "witness": 7}


@pytest.mark.parametrize(
    "args",
    [
        ("collatz", "verify", "--lo", 5, "--hi", 1, "--budget", 10),
        ("collatz", "verify", "--lo", 0, "--hi", 10, "--budget", 10),
        ("collatz", "stopping-time", "--n", -3, "--budget", 10),
        ("parity", "realize", "--bits", "10a1"),
        ("parity", "bijection", "--k", 99),
        ("parity", "fraction", "--k", 8, "--samples", 0),
        ("walk", "simulate", "--trials", 0, "--steps", 10),
        ("walk", "simulate", "--trials", 5, "--steps", 10, "--p-odd", 1.5),
        ("walk", "empirical", "--lo", 0, "--count", 5, "--k", 3),
        ("mertens", "sieve", "--limit", 0),
        ("mertens", "growth", "--limit", 100, "--epsilon", -1.0),
        ("mertens", "compare", "--limit", 1, "--trials", 5),
        ("mertens", "compare", "--limit", 10**8, "--trials", 20, "--seed", -1),
        ("parity", "fraction", "--k", 8, "--samples", 4, "--seed", -1),
        ("walk", "simulate", "--trials", 5, "--steps", 0, "--seed", -1),
        ("zeta", "theta", "--t", 5.0),
        ("zeta", "z", "--t", 9.9),
        ("zeta", "scan", "--lo", 30.0, "--hi", 10.0),
        ("zeta", "verify", "--T", 13.0),
        ("mertens", "compare", "--limit", 10**8, "--trials", 20, "--seed", 2**64),
        ("parity", "fraction", "--k", 8, "--samples", 4, "--seed", 2**64),
        ("walk", "simulate", "--trials", 5, "--steps", 10, "--seed", 2**70),
        ("walk", "simulate", "--trials", 2, "--steps", 10**20),
    ],
)
def test_domain_errors_exit_2(args):
    r = run(*args)
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert r.stdout == ""


def test_parity_fraction_negative_k_exits_2():
    r = run("parity", "fraction", "--k", -3, "--samples", 4, "--threshold", 5)
    assert r.returncode == 2
    assert "k must be non-negative" in r.stderr
    assert r.stdout == ""


def test_usage_errors_exit_2():
    assert run("collatz", "verify", "--lo", 1).returncode == 2
    assert run("nonsense").returncode == 2
    assert run("zeta", "unknowncmd").returncode == 2


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


def test_repeat_runs_byte_identical():
    for args in [
        ("parity", "fraction", "--k", 64, "--samples", 16, "--seed", 9),
        ("walk", "simulate", "--trials", 8, "--steps", 500, "--seed", 2),
        ("collatz", "verify", "--lo", 1, "--hi", 5000, "--budget", 500),
    ]:
        assert run(*args).stdout == run(*args).stdout


# Literal stdout of every subcommand under both record formats, with the exit
# code and the start of stderr: (argv, exit code, csv, jsonl, stderr prefix).
_NEAR_HALF = (
    "warning: theta(30.0)/pi + 1 = 3.564877 is within 0.3 of a half-integer; "
    "the rounded count may be off by one\n"
)
_GOLDEN = [
    (
        ("collatz", "verify", "--lo", 1, "--hi", 1000, "--budget", 1000),
        0,
        "1,1000,1000,0,113\n",
        (
            '{"lo": 1, "hi": 1000, "verified_count": 1000, '
            '"max_stopping_time_seen": 113, "counterexample_candidates": []}\n'
        ),
        "",
    ),
    (
        ("collatz", "verify", "--lo", 25, "--hi", 28, "--budget", 5),
        1,
        (
            "25,28,0,4,0\n"
            "25,5,22\n"
            "26,5,8\n"
            "27,5,71\n"
            "28,5,26\n"
        ),
        (
            '{"lo": 25, "hi": 28, "verified_count": 0, "max_stopping_time_seen": 0, '
            '"counterexample_candidates": [{"n": 25, "steps_taken": 5, '
            '"last_iterate": 22}, {"n": 26, "steps_taken": 5, "last_iterate": 8}, '
            '{"n": 27, "steps_taken": 5, "last_iterate": 71}, {"n": 28, '
            '"steps_taken": 5, "last_iterate": 26}]}\n'
        ),
        "",
    ),
    (
        (
            "collatz", "verify", "--lo", 1, "--hi", 3000, "--budget", 120,
            "--workers", 2, "--chunk-size", 700,
        ),
        1,
        (
            "1,3000,2997,3,116\n"
            "2463,120,44\n"
            "2631,120,2\n"
            "2919,120,152\n"
        ),
        (
            '{"lo": 1, "hi": 3000, "verified_count": 2997, '
            '"max_stopping_time_seen": 116, "counterexample_candidates": [{"n": 2463, '
            '"steps_taken": 120, "last_iterate": 44}, {"n": 2631, "steps_taken": 120, '
            '"last_iterate": 2}, {"n": 2919, "steps_taken": 120, "last_iterate": 152}]}\n'
        ),
        "",
    ),
    (
        ("collatz", "trajectory", "--n", 5, "--max-steps", 100),
        0,
        (
            "0,5,1\n"
            "1,8,0\n"
            "2,4,0\n"
            "3,2,0\n"
            "4,1,1\n"
        ),
        (
            '{"start": 5, "iterates": [5, 8, 4, 2, 1], "parities": [1, 0, 0, 0, 1], '
            '"truncated": false}\n'
        ),
        "",
    ),
    (
        ("collatz", "trajectory", "--n", 27, "--max-steps", 3),
        1,
        (
            "0,27,1\n"
            "1,41,1\n"
            "2,62,0\n"
            "3,31,1\n"
        ),
        (
            '{"start": 27, "iterates": [27, 41, 62, 31], "parities": [1, 1, 0, 1], '
            '"truncated": true}\n'
        ),
        "",
    ),
    (
        ("collatz", "stopping-time", "--n", 27, "--budget", 1000),
        0,
        "27,70,4616\n",
        '{"n": 27, "total_stopping_time": 70, "max_excursion": 4616}\n',
        "",
    ),
    (
        ("collatz", "stopping-time", "--n", 27, "--budget", 5),
        1,
        "",
        "",
        "",
    ),
    (
        ("parity", "extract", "--n", 27, "--k", 16),
        0,
        "27,16,1101111101011011\n",
        '{"n": 27, "k": 16, "bits": "1101111101011011"}\n',
        "",
    ),
    (
        ("parity", "realize", "--bits", "0110"),
        0,
        "4,6,6\n",
        '{"k": 4, "residue": 6, "witness": 6}\n',
        "",
    ),
    (
        ("parity", "bijection", "--k", 8),
        0,
        "8,true\n",
        '{"k": 8, "ok": true}\n',
        "",
    ),
    (
        ("parity", "score", "--bits", "01" * 24),
        0,
        "48,31,17\n",
        '{"length": 48, "estimate": 31, "deficiency": 17}\n',
        "",
    ),
    (
        ("parity", "score", "--n", 27, "--k", 64),
        0,
        "64,78,-14\n",
        '{"length": 64, "estimate": 78, "deficiency": -14}\n',
        "",
    ),
    (
        ("parity", "fraction", "--k", 64, "--samples", 8, "--seed", 1, "--workers", 2),
        0,
        "64,8,14,1.0\n",
        '{"k": 64, "samples": 8, "threshold": 14, "fraction": 1.0}\n',
        "",
    ),
    (
        ("walk", "simulate", "--trials", 4, "--steps", 100, "--seed", 3),
        0,
        "4,100,-0.07243123746246331,0.03765853195432322,0.75\n",
        (
            '{"trials": 4, "steps": 100, "mean_step_drift": -0.07243123746246331, '
            '"std_error": 0.03765853195432322, "fraction_descended": 0.75}\n'
        ),
        "",
    ),
    (
        ("walk", "simulate", "--trials", 3, "--steps", 0),
        0,
        "3,0,0.0,0.0,0.0\n",
        (
            '{"trials": 3, "steps": 0, "mean_step_drift": 0.0, "std_error": 0.0, '
            '"fraction_descended": 0.0}\n'
        ),
        "",
    ),
    (
        ("walk", "empirical", "--lo", 1, "--count", 10, "--k", 8),
        0,
        "1,10,8,0.38636363636363635\n",
        '{"lo": 1, "count": 10, "k": 8, "frequency": 0.38636363636363635}\n',
        "",
    ),
    (
        ("mertens", "sieve", "--limit", 12),
        0,
        (
            "1,1\n"
            "2,-1\n"
            "3,-1\n"
            "4,0\n"
            "5,-1\n"
            "6,1\n"
            "7,-1\n"
            "8,0\n"
            "9,0\n"
            "10,1\n"
            "11,-1\n"
            "12,0\n"
        ),
        (
            '{"n": 1, "mu": 1}\n'
            '{"n": 2, "mu": -1}\n'
            '{"n": 3, "mu": -1}\n'
            '{"n": 4, "mu": 0}\n'
            '{"n": 5, "mu": -1}\n'
            '{"n": 6, "mu": 1}\n'
            '{"n": 7, "mu": -1}\n'
            '{"n": 8, "mu": 0}\n'
            '{"n": 9, "mu": 0}\n'
            '{"n": 10, "mu": 1}\n'
            '{"n": 11, "mu": -1}\n'
            '{"n": 12, "mu": 0}\n'
        ),
        "",
    ),
    (
        ("mertens", "sieve", "--limit", 100, "--head", 5),
        0,
        (
            "1,1\n"
            "2,-1\n"
            "3,-1\n"
            "4,0\n"
            "5,-1\n"
        ),
        (
            '{"n": 1, "mu": 1}\n'
            '{"n": 2, "mu": -1}\n'
            '{"n": 3, "mu": -1}\n'
            '{"n": 4, "mu": 0}\n'
            '{"n": 5, "mu": -1}\n'
        ),
        "",
    ),
    (
        ("mertens", "sieve", "--limit", 100, "--head", 0),
        0,
        "",
        "",
        "",
    ),
    (
        ("mertens", "sieve", "--limit", 100, "--head", -2),
        2,
        "",
        "",
        "error: head must be non-negative\n",
    ),
    (
        ("mertens", "series", "--limit", 1000),
        0,
        "1000,2\n",
        '{"n": 1000, "M": 2}\n',
        "",
    ),
    (
        ("mertens", "series", "--limit", 1000, "--at", "1,10,1000"),
        0,
        (
            "1,1\n"
            "10,-1\n"
            "1000,2\n"
        ),
        (
            '{"n": 1, "M": 1}\n'
            '{"n": 10, "M": -1}\n'
            '{"n": 1000, "M": 2}\n'
        ),
        "",
    ),
    (
        ("mertens", "growth", "--limit", 1000, "--epsilon", 0.1),
        0,
        "0.1,0.7614615754863515,5\n",
        '{"epsilon": 0.1, "sup": 0.7614615754863515, "argmax": 5}\n',
        "",
    ),
    (
        ("mertens", "compare", "--limit", 2000, "--trials", 1, "--seed", 3),
        0,
        "2000,1,1215,0.8944271909999159,1.7888543819998317,0.0,-17.0,0.0\n",
        (
            '{"n": 2000, "trials": 1, "walk_length": 1215, '
            '"mertens_statistic": 0.8944271909999159, '
            '"walk_mean_statistic": 1.7888543819998317, "percentile_rank": 0.0, '
            '"mean_final_position": -17.0, "final_position_sem": 0.0}\n'
        ),
        "",
    ),
    (
        (
            "mertens", "compare", "--limit", 500, "--trials", 4, "--seed", 2,
            "--workers", 2,
        ),
        0,
        (
            "500,4,306,0.8944271909999159,1.9123153542469353,0.0,11.0,"
            "8.888194417315589\n"
        ),
        (
            '{"n": 500, "trials": 4, "walk_length": 306, '
            '"mertens_statistic": 0.8944271909999159, '
            '"walk_mean_statistic": 1.9123153542469353, "percentile_rank": 0.0, '
            '"mean_final_position": 11.0, "final_position_sem": 8.888194417315589}\n'
        ),
        "",
    ),
    (
        ("zeta", "theta", "--t", 30.0),
        0,
        "30.0,8.057800136548158,3.165975498722195e-11\n",
        (
            '{"t": 30.0, "theta": 8.057800136548158, '
            '"error_bound": 3.165975498722195e-11}\n'
        ),
        "",
    ),
    (
        ("zeta", "z", "--t", 100.0),
        0,
        "100.0,2.6926954954834526,3,9.486832980505138e-06\n",
        (
            '{"t": 100.0, "z": 2.6926954954834526, "terms": 3, '
            '"error_bound": 9.486832980505138e-06}\n'
        ),
        "",
    ),
    (
        ("zeta", "scan", "--lo", 10.0, "--hi", 30.0),
        0,
        (
            "14.100000000000001,14.15\n"
            "21.0,21.05\n"
            "25.0,25.05\n"
        ),
        (
            '{"t_lo": 14.100000000000001, "t_hi": 14.15}\n'
            '{"t_lo": 21.0, "t_hi": 21.05}\n'
            '{"t_lo": 25.0, "t_hi": 25.05}\n'
        ),
        "",
    ),
    (
        ("zeta", "scan", "--lo", 10.0, "--hi", 14.0),
        0,
        "",
        "",
        "",
    ),
    (
        ("zeta", "count", "--at", 30.0),
        0,
        "30.0,4\n",
        '{"T": 30.0, "count": 4}\n',
        _NEAR_HALF,
    ),
    (
        ("zeta", "count", "--at", 100.0),
        0,
        "100.0,29\n",
        '{"T": 100.0, "count": 29}\n',
        "",
    ),
    (
        ("zeta", "refine", "--lo", 10.0, "--hi", 26.0),
        0,
        (
            "1,14.134822934493423\n"
            "2,21.022037183865905\n"
            "3,25.010871494933966\n"
        ),
        (
            '{"index": 1, "t": 14.134822934493423}\n'
            '{"index": 2, "t": 21.022037183865905}\n'
            '{"index": 3, "t": 25.010871494933966}\n'
        ),
        "",
    ),
    (
        ("zeta", "refine", "--lo", 10.0, "--hi", 14.0),
        0,
        "",
        "",
        "",
    ),
    (
        ("zeta", "verify", "--T", 100.0),
        0,
        "100.0,29,29,true,31\n",
        (
            '{"T": 100.0, "sign_change_count": 29, "analytic_count": 29, '
            '"verified": true, "z_evaluations": 31}\n'
        ),
        "",
    ),
    (
        ("zeta", "verify", "--T", 30.0, "--max-refinements", 1),
        1,
        "30.0,3,4,false,260\n",
        (
            '{"T": 30.0, "sign_change_count": 3, "analytic_count": 4, '
            '"verified": false, "z_evaluations": 260}\n'
        ),
        _NEAR_HALF,
    ),
    (
        ("collatz", "verify", "--lo", 5, "--hi", 1, "--budget", 10),
        2,
        "",
        "",
        "error: range is empty: hi < lo\n",
    ),
    (
        ("parity", "score"),
        2,
        "",
        "",
        "error: provide --bits, or both --n and --k\n",
    ),
    (
        ("mertens", "sieve", "--limit", 0, "--head", 0),
        2,
        "",
        "",
        "error: limit must be a positive integer\n",
    ),
    (
        ("mertens", "sieve", "--limit", 3000000000, "--head", 4),
        2,
        "",
        "",
        "error: limit must not exceed 2147483647\n",
    ),
    (
        ("mertens", "series", "--limit", 100, "--at", "10,101"),
        2,
        "",
        "",
        "error: --at value 101 outside [1, 100]\n",
    ),
    (
        ("mertens", "series", "--limit", 0, "--at", "1"),
        2,
        "",
        "",
        "error: limit must be a positive integer\n",
    ),
    (
        ("zeta", "verify", "--T", 13.0),
        2,
        "",
        "",
        "error: T must be >= 14 (below the first zero the report is vacuous)\n",
    ),
    (
        ("zeta", "nonsense"),
        2,
        "",
        "",
        "usage:",
    ),
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    "argv,code,csv,jsonl,err", _GOLDEN, ids=[" ".join(map(str, g[0])) for g in _GOLDEN]
)
def test_golden_stdout(argv, code, csv, jsonl, err, fmt, capsys):
    try:
        got = cli.main([str(a) for a in argv] + ["--format", fmt])
    except SystemExit as e:  # argparse usage errors
        got = e.code
    out, stderr = capsys.readouterr()
    assert got == code
    assert out == (csv if fmt == "csv" else jsonl)
    assert stderr.startswith(err)


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
