"""Every pinned output of the ``conjlab`` command line, in one table.

Each row holds an argv (split on spaces), the exit status, the csv
stdout (or ``sha256:`` and its hex digest), the jsonl stdout where one
is pinned, and stderr.  An ``err`` that ends in a newline pins the whole
of stderr, an empty one pins an empty stderr, and any other pins its
start.  The jsonl run appends ``--format jsonl`` to the argv.  Every run
is 80 columns wide, so argparse's usage text wraps the same way on any
terminal.

``tests/test_cli.py`` runs every row in process through ``cli.main``,
its csv run with ``--format csv`` appended, and a few rows through
``python -m conjlab.cli``.  ``python tests/cli_pins.py`` runs every row
through the installed ``conjlab`` script, its csv run in the default
format, names each row that differs and exits 1 if any does.

A row whose value ROADMAP calls wrong carries a comment naming the item
that will change it: a pin records what conjlab prints, not that it is
right.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

from conjlab import cli


class Pin(NamedTuple):
    argv: str
    status: int
    csv: str
    jsonl: str | None = None
    err: str = ""


def _near_half(t, count):
    return (
        f"warning: theta({t})/pi + 1 = {count} is within 0.3 of a half-integer; "
        "the rounded count may be off by one\n"
    )


# values that more than one row pins
_NEAR_HALF = _near_half(30.0, 3.564877)
_LZ = "estimator=twopart-gamma+lz77/m16 "
_DRIFT = "expected_step_drift="
_CHUNKS = "chunks="
_SEED = "error: seed must be non-negative, got -1\n"
_GROWTH_EPS0 = "0.0,0.8944271909999159,5\n"
_COMPARE_1E6 = "1000000,20,607926,0.8944271909999159,2.22415715378473,0.0,-21.3,148.6707612920506\n"
_WALK_32 = "32,2000,-0.1423304443289718,0.0018419334756323651,1.0\n"
_COMPARE_2000 = "2000,8,1215,0.8944271909999159,2.2712348520805463,0.0,8.25,16.159638875031476\n"
_VERIFY_100 = "100.0,29,29,true,31\n"
_VERIFY_30 = "30.0,3,4,false,260\n"
_SCAN_10_30 = "14.100000000000001,14.15\n21.0,21.05\n25.0,25.05\n"
_REFINE_10_26 = "1,14.134822934493423\n2,21.022037183865905\n3,25.010871494933966\n"
_FINITE = "error: t must be finite\n"
_STEP = "error: grid_step must be positive and finite\n"
_TINY_STEP = "error: grid_step is too small: the grid's point count overflows\n"
_Z_RANGE = "error: t must be <= 30000; Z's error bound is calibrated only that far\n"
_THETA_RANGE = "error: t must be <= 1e+15; the float64 spacing of theta(t)/pi reaches 1 there\n"

PINS = [
    Pin(
        "--version", 0,
        "conjlab 0.1.0 (estimator=twopart-gamma+lz77/m16; riemann-siegel-correction=C2; "
        "theta-series=t^-3)\n",
    ),
    # collatz
    Pin(
        "collatz verify --lo 1 --hi 1000 --budget 1000", 0, "1,1000,1000,0,113\n",
        '{"lo": 1, "hi": 1000, "verified_count": 1000, "max_stopping_time_seen": 113, '
        '"counterexample_candidates": []}\n',
        _CHUNKS,
    ),
    Pin(
        "collatz verify --lo 1 --hi 100 --budget 500", 0, "1,100,100,0,75\n",
        '{"lo": 1, "hi": 100, "verified_count": 100, "max_stopping_time_seen": 75, '
        '"counterexample_candidates": []}\n',
        _CHUNKS,
    ),
    Pin("collatz verify --lo 1 --hi 5000 --budget 500", 0, "1,5000,5000,0,150\n", err=_CHUNKS),
    Pin("collatz verify --lo 1 --hi 500000 --budget 100000", 0, "1,500000,500000,0,282\n", err=_CHUNKS),
    Pin("collatz verify --lo 1 --hi 30000000 --budget 100000", 0, "1,30000000,30000000,0,441\n", err=_CHUNKS),
    Pin(
        "collatz verify --lo 1 --hi 30000000 --budget 100000 --workers 2", 0,
        "1,30000000,30000000,0,441\n", err=_CHUNKS,
    ),
    Pin(
        "collatz verify --lo 4611686018453667840 --hi 4611686018453676031 --budget 100000", 0,
        "4611686018453667840,4611686018453676031,8192,0,468\n", err=_CHUNKS,
    ),
    Pin(
        "collatz verify --lo 9223372036854751232 --hi 9223372036854759423 --budget 100000", 0,
        "9223372036854751232,9223372036854759423,8192,0,469\n", err=_CHUNKS,
    ),
    Pin(
        "collatz verify --lo 8198552921648685509 --hi 8198552921648693700 --budget 100000", 0,
        "8198552921648685509,8198552921648693700,8192,0,556\n", err=_CHUNKS,
    ),
    Pin(
        "collatz verify --lo 9223372036855824384 --hi 9223372036855832575 --budget 100000", 0,
        "9223372036855824384,9223372036855832575,8192,0,469\n", err=_CHUNKS,
    ),
    Pin(
        "collatz verify --lo 1 --hi 3000 --budget 60", 1,
        "sha256:ff388c8cf59378f8e8ed75d68705f87a008bb100e5e85fb5431bd1782fe1a52b", err=_CHUNKS,
    ),
    Pin("collatz verify --lo 27 --hi 27 --budget 5", 1, "27,27,0,1,0\n27,5,71\n", err=_CHUNKS),
    Pin(
        "collatz verify --lo 25 --hi 28 --budget 5", 1,
        "25,28,0,4,0\n25,5,22\n26,5,8\n27,5,71\n28,5,26\n",
        '{"lo": 25, "hi": 28, "verified_count": 0, "max_stopping_time_seen": 0, '
        '"counterexample_candidates": [{"n": 25, "steps_taken": 5, "last_iterate": 22}, '
        '{"n": 26, "steps_taken": 5, "last_iterate": 8}, '
        '{"n": 27, "steps_taken": 5, "last_iterate": 71}, '
        '{"n": 28, "steps_taken": 5, "last_iterate": 26}]}\n',
        _CHUNKS,
    ),
    Pin(
        "collatz verify --lo 1 --hi 3000 --budget 120 --workers 2 --chunk-size 700", 1,
        "1,3000,2997,3,116\n2463,120,44\n2631,120,2\n2919,120,152\n",
        '{"lo": 1, "hi": 3000, "verified_count": 2997, "max_stopping_time_seen": 116, '
        '"counterexample_candidates": [{"n": 2463, "steps_taken": 120, "last_iterate": 44}, '
        '{"n": 2631, "steps_taken": 120, "last_iterate": 2}, '
        '{"n": 2919, "steps_taken": 120, "last_iterate": 152}]}\n',
        _CHUNKS,
    ),
    Pin(
        "collatz trajectory --n 5 --max-steps 100", 0, "0,5,1\n1,8,0\n2,4,0\n3,2,0\n4,1,1\n",
        '{"start": 5, "iterates": [5, 8, 4, 2, 1], "parities": [1, 0, 0, 0, 1], "truncated": false}\n',
    ),
    Pin(
        "collatz trajectory --n 27 --max-steps 3", 1, "0,27,1\n1,41,1\n2,62,0\n3,31,1\n",
        '{"start": 27, "iterates": [27, 41, 62, 31], "parities": [1, 1, 0, 1], "truncated": true}\n',
    ),
    Pin(
        "collatz stopping-time --n 27 --budget 1000", 0, "27,70,4616\n",
        '{"n": 27, "total_stopping_time": 70, "max_excursion": 4616}\n',
    ),
    Pin(
        "collatz stopping-time --n 27 --budget 5", 1, "", "",
        "budget 5 exhausted before n=27 reached 1\n",
    ),
    Pin("collatz verify --lo 5 --hi 1 --budget 10", 2, "", "", "error: range is empty: hi < lo\n"),
    Pin("collatz verify --lo 0 --hi 10 --budget 10", 2, "", err="error: lo must be a positive integer\n"),
    Pin("collatz stopping-time --n -3 --budget 10", 2, "", err="error: n must be a positive integer\n"),
    Pin("collatz verify --lo 1", 2, "", err="usage: conjlab collatz verify "),
    # parity
    Pin("parity extract --n 7 --k 3", 0, "7,3,111\n"),
    Pin(
        "parity extract --n 27 --k 16", 0, "27,16,1101111101011011\n",
        '{"n": 27, "k": 16, "bits": "1101111101011011"}\n',
    ),
    Pin(
        "parity extract --n 27 --k 4096", 0,
        "sha256:344de0a40d07ec1866c1a6ba80aea45f69de1367d0ebd28c855af455350de0ca",
    ),
    Pin("parity realize --bits 111", 0, "3,7,7\n", '{"k": 3, "residue": 7, "witness": 7}\n'),
    Pin("parity realize --bits 0110", 0, "4,6,6\n", '{"k": 4, "residue": 6, "witness": 6}\n'),
    Pin("parity realize --bits 110100111010", 0, "12,2443,2443\n"),
    Pin("parity bijection --k 8", 0, "8,true\n", '{"k": 8, "ok": true}\n'),
    Pin("parity bijection --k 16", 0, "16,true\n"),
    Pin("parity bijection --k 23", 0, "23,true\n"),
    Pin("parity bijection --k 24", 0, "24,true\n"),
    Pin(
        "parity score --bits " + "01" * 24, 0, "48,31,17\n",
        '{"length": 48, "estimate": 31, "deficiency": 17}\n', _LZ,
    ),
    Pin("parity score --bits " + "0" * 1024, 0, "1024,45,979\n", err=_LZ),
    Pin(
        "parity score --n 27 --k 64", 0, "64,78,-14\n",
        '{"length": 64, "estimate": 78, "deficiency": -14}\n', _LZ,
    ),
    Pin("parity score --n 27 --k 4096", 0, "4096,195,3901\n", err=_LZ),
    Pin(
        "parity fraction --k 64 --samples 8 --seed 1 --workers 2", 0, "64,8,14,1.0\n",
        '{"k": 64, "samples": 8, "threshold": 14, "fraction": 1.0}\n',
    ),
    Pin("parity fraction --k 8 --samples 256 --seed 1 --threshold 0", 0, "8,256,0,1.0\n"),
    Pin("parity fraction --k 64 --samples 16 --seed 9", 0, "64,16,14,1.0\n"),
    Pin("parity fraction --k 4096 --samples 40 --seed 501", 0, "4096,40,26,1.0\n"),
    Pin("parity score", 2, "", "", "error: provide --bits, or both --n and --k\n"),
    Pin("parity realize --bits 10a1", 2, "", err="error: parity bits must be 0 or 1\n"),
    Pin("parity bijection --k 99", 2, "", err="error: k > 24 not supported by the exhaustive check\n"),
    Pin("parity fraction --k 8 --samples 0", 2, "", err="error: samples must be at least 1\n"),
    Pin("parity fraction --k 8 --samples 4 --seed -1", 2, "", err=_SEED),
    Pin(
        "parity fraction --k 8 --samples 4 --seed 18446744073709551616", 2, "",
        err="error: seed must be below 2**64, got 18446744073709551616\n",
    ),
    Pin("parity fraction --k -3 --samples 4 --threshold 5", 2, "", err="error: k must be non-negative\n"),
    # walk
    Pin(
        "walk simulate --trials 4 --steps 100 --seed 3", 0,
        "4,100,-0.07243123746246331,0.03765853195432322,0.75\n",
        '{"trials": 4, "steps": 100, "mean_step_drift": -0.07243123746246331, '
        '"std_error": 0.03765853195432322, "fraction_descended": 0.75}\n',
        _DRIFT,
    ),
    Pin(
        "walk simulate --trials 3 --steps 0", 0, "3,0,0.0,0.0,0.0\n",
        '{"trials": 3, "steps": 0, "mean_step_drift": 0.0, "std_error": 0.0, '
        '"fraction_descended": 0.0}\n',
        _DRIFT,
    ),
    Pin("walk simulate --trials 32 --steps 2000 --seed 11", 0, _WALK_32, err=_DRIFT),
    Pin("walk simulate --trials 32 --steps 2000 --seed 11 --workers 8", 0, _WALK_32, err=_DRIFT),
    Pin(
        "walk simulate --trials 8 --steps 500 --seed 2", 0,
        "8,500,-0.1405451993598861,0.00809444787765735,1.0\n", err=_DRIFT,
    ),
    Pin(
        "walk empirical --lo 1 --count 10 --k 8", 0, "1,10,8,0.38636363636363635\n",
        '{"lo": 1, "count": 10, "k": 8, "frequency": 0.38636363636363635}\n',
    ),
    Pin("walk empirical --lo 1 --count 1 --k 2", 0, "1,1,2,0.5\n"),
    Pin("walk empirical --lo 1099511627776 --count 200 --k 64", 0, "1099511627776,200,64,0.49702567313713214\n"),
    Pin(
        "walk empirical --lo 1099511627776 --count 10000 --k 64", 0,
        "1099511627776,10000,64,0.49770147630536143\n",
    ),
    Pin("walk simulate --trials 0 --steps 10", 2, "", err="error: trials must be at least 1\n"),
    Pin("walk simulate --trials 5 --steps 10 --p-odd 1.5", 2, "", err="error: p_odd must lie in [0, 1]\n"),
    Pin("walk empirical --lo 0 --count 5 --k 3", 2, "", err="error: lo must be a positive integer\n"),
    Pin("walk simulate --trials 5 --steps 0 --seed -1", 2, "", err=_SEED),
    Pin(
        "walk simulate --trials 5 --steps 10 --seed 1180591620717411303424", 2, "",
        err="error: seed must be below 2**64, got 1180591620717411303424\n",
    ),
    Pin(
        "walk simulate --trials 2 --steps 100000000000000000000", 2, "",
        err="error: steps must be below 2**63, got 100000000000000000000\n",
    ),
    # mertens
    Pin(
        "mertens sieve --limit 12", 0, "1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n7,-1\n8,0\n9,0\n10,1\n11,-1\n12,0\n",
        '{"n": 1, "mu": 1}\n{"n": 2, "mu": -1}\n{"n": 3, "mu": -1}\n{"n": 4, "mu": 0}\n'
        '{"n": 5, "mu": -1}\n{"n": 6, "mu": 1}\n{"n": 7, "mu": -1}\n{"n": 8, "mu": 0}\n'
        '{"n": 9, "mu": 0}\n{"n": 10, "mu": 1}\n{"n": 11, "mu": -1}\n{"n": 12, "mu": 0}\n',
    ),
    Pin(
        "mertens sieve --limit 100 --head 5", 0, "1,1\n2,-1\n3,-1\n4,0\n5,-1\n",
        '{"n": 1, "mu": 1}\n{"n": 2, "mu": -1}\n{"n": 3, "mu": -1}\n{"n": 4, "mu": 0}\n'
        '{"n": 5, "mu": -1}\n',
    ),
    Pin("mertens sieve --limit 100 --head 4", 0, "1,1\n2,-1\n3,-1\n4,0\n"),
    Pin("mertens sieve --limit 100 --head 0", 0, "", ""),
    Pin("mertens series --limit 1000", 0, "1000,2\n", '{"n": 1000, "M": 2}\n'),
    Pin(
        "mertens series --limit 1000 --at 1,10,1000", 0, "1,1\n10,-1\n1000,2\n",
        '{"n": 1, "M": 1}\n{"n": 10, "M": -1}\n{"n": 1000, "M": 2}\n',
    ),
    Pin("mertens series --limit 10000 --at 10,100,10000", 0, "10,-1\n100,1\n10000,-23\n"),
    Pin("mertens series --limit 10000000 --at 10000000", 0, "10000000,1037\n"),
    # M(10^k), OEIS A084237
    Pin(
        "mertens series --limit 10000000 --at 10,100,1000,10000,100000,1000000,10000000", 0,
        "10,-1\n100,1\n1000,2\n10000,-23\n100000,-48\n1000000,212\n10000000,1037\n",
    ),
    Pin(
        "mertens growth --limit 1000 --epsilon 0.1", 0, "0.1,0.7614615754863515,5\n",
        '{"epsilon": 0.1, "sup": 0.7614615754863515, "argmax": 5}\n',
    ),
    Pin("mertens growth --limit 10000 --epsilon 0.0", 0, _GROWTH_EPS0),
    Pin("mertens growth --limit 3000000 --epsilon 0.0", 0, _GROWTH_EPS0),
    Pin("mertens growth --limit 5000000 --epsilon 0.0", 0, _GROWTH_EPS0),
    Pin("mertens growth --limit 100000000 --epsilon 0.0", 0, _GROWTH_EPS0),
    # where n^(1/2 + epsilon) overflows, no warning reaches stderr
    Pin("mertens growth --limit 200000 --epsilon 50", 0, "50.0,8.0422327278822955e-25,3\n"),
    Pin("mertens growth --limit 200000 --epsilon 600", 0, "600.0,3.080963411729999e-287,3\n"),
    Pin("mertens growth --limit 200000 --epsilon inf", 0, "inf,0.0,2\n"),
    Pin(
        "mertens compare --limit 2000 --trials 1 --seed 3", 0,
        "2000,1,1215,0.8944271909999159,1.7888543819998317,0.0,-17.0,0.0\n",
        '{"n": 2000, "trials": 1, "walk_length": 1215, "mertens_statistic": 0.8944271909999159, '
        '"walk_mean_statistic": 1.7888543819998317, "percentile_rank": 0.0, '
        '"mean_final_position": -17.0, "final_position_sem": 0.0}\n',
    ),
    Pin(
        "mertens compare --limit 500 --trials 4 --seed 2 --workers 2", 0,
        "500,4,306,0.8944271909999159,1.9123153542469353,0.0,11.0,8.888194417315589\n",
        '{"n": 500, "trials": 4, "walk_length": 306, "mertens_statistic": 0.8944271909999159, '
        '"walk_mean_statistic": 1.9123153542469353, "percentile_rank": 0.0, '
        '"mean_final_position": 11.0, "final_position_sem": 8.888194417315589}\n',
    ),
    Pin("mertens compare --limit 2000 --trials 8 --seed 3", 0, _COMPARE_2000),
    Pin("mertens compare --limit 2000 --trials 8 --seed 3 --workers 8", 0, _COMPARE_2000),
    Pin(
        "mertens compare --limit 100000 --trials 8 --seed 4", 0,
        "100000,8,60794,0.8944271909999159,2.2849547887730663,0.0,-105.0,73.74085899767024\n",
    ),
    Pin("mertens compare --limit 1000000 --trials 20 --seed 401", 0, _COMPARE_1E6),
    Pin("mertens compare --limit 1000000 --trials 20 --seed 401 --workers 2", 0, _COMPARE_1E6),
    Pin("mertens sieve --limit 100 --head -2", 2, "", "", "error: head must be non-negative\n"),
    Pin("mertens sieve --limit 0 --head 0", 2, "", "", "error: limit must be a positive integer\n"),
    Pin("mertens sieve --limit 0", 2, "", err="error: limit must be a positive integer\n"),
    Pin("mertens sieve --limit 5 --head -3", 2, "", err="error: head must be non-negative\n"),
    Pin("mertens sieve --limit 3000000000 --head 4", 2, "", "", "error: limit must not exceed 2147483647\n"),
    Pin("mertens series --limit 100 --at 10,101", 2, "", "", "error: --at value 101 outside [1, 100]\n"),
    Pin("mertens series --limit 100 --at 101", 2, "", err="error: --at value 101 outside [1, 100]\n"),
    Pin("mertens series --limit 0 --at 1", 2, "", "", "error: limit must be a positive integer\n"),
    Pin("mertens growth --limit 100 --epsilon -1.0", 2, "", err="error: epsilon must be non-negative\n"),
    Pin("mertens growth --limit 1000 --epsilon nan", 2, "", err="error: epsilon must be non-negative\n"),
    Pin(
        "mertens growth --limit 200000 --epsilon 1000", 2, "",
        err="error: epsilon 1000.0 too large: 3^(1/2 + epsilon) overflows a float, so the supremum, "
        "at n = 3, cannot be represented\n",
    ),
    Pin("mertens compare --limit 1 --trials 5", 2, "", err="error: limit must be at least 2\n"),
    Pin("mertens compare --limit 100000000 --trials 20 --seed -1", 2, "", err=_SEED),
    Pin(
        "mertens compare --limit 100000000 --trials 20 --seed 18446744073709551616", 2, "",
        err="error: seed must be below 2**64, got 18446744073709551616\n",
    ),
    # zeta
    Pin(
        "zeta theta --t 30.0", 0, "30.0,8.057800136548158,3.165975498722195e-11\n",
        '{"t": 30.0, "theta": 8.057800136548158, "error_bound": 3.165975498722195e-11}\n',
    ),
    Pin("zeta theta --t 10000", 0, "10000.0,31861.923830835818,2.920286652540332e-11\n"),
    Pin(
        "zeta z --t 100.0", 0, "100.0,2.6926954954834526,3,9.486832980505138e-06\n",
        '{"t": 100.0, "z": 2.6926954954834526, "terms": 3, "error_bound": 9.486832980505138e-06}\n',
    ),
    Pin("zeta z --t 29999.5", 0, "29999.5,-0.18848201256415092,69,4.387041331080742e-10\n"),
    Pin(
        "zeta scan --lo 10.0 --hi 30.0", 0, _SCAN_10_30,
        '{"t_lo": 14.100000000000001, "t_hi": 14.15}\n{"t_lo": 21.0, "t_hi": 21.05}\n'
        '{"t_lo": 25.0, "t_hi": 25.05}\n',
    ),
    Pin("zeta scan --lo 10.0 --hi 30.0 --step 0.05", 0, _SCAN_10_30),
    Pin("zeta scan --lo 10.0 --hi 14.0", 0, "", ""),
    # the count 4 is wrong, N(30) = 3 (ROADMAP item 3)
    Pin("zeta count --at 30.0", 0, "30.0,4\n", '{"T": 30.0, "count": 4}\n', _NEAR_HALF),
    Pin("zeta count --at 100.0", 0, "100.0,29\n", '{"T": 100.0, "count": 29}\n'),
    # the ordinates are off by more than --tol (ROADMAP item 17)
    Pin(
        "zeta refine --lo 10.0 --hi 26.0", 0, _REFINE_10_26,
        '{"index": 1, "t": 14.134822934493423}\n{"index": 2, "t": 21.022037183865905}\n'
        '{"index": 3, "t": 25.010871494933966}\n',
    ),
    # the ordinates are off by more than --tol (ROADMAP item 17)
    Pin("zeta refine --lo 10.0 --hi 26.0 --step 0.05", 0, _REFINE_10_26),
    # the ordinates are off by more than --tol (ROADMAP item 17)
    Pin(
        "zeta refine --lo 10 --hi 60 --step 0.05", 0,
        "1,14.134822934493423\n2,21.022037183865905\n3,25.010871494933966\n4,30.424886536225678\n"
        "5,32.935044499114156\n6,37.58618551008404\n7,40.91871782951057\n8,43.327071051672114\n"
        "9,48.00515349693596\n10,49.77383154518904\n11,52.97032009102404\n12,56.44624954722821\n"
        "13,59.34704193808138\n",
    ),
    # Lehmer's close pair; the ordinates carry no bound (ROADMAP item 17)
    Pin("zeta refine --lo 7005.0 --hi 7005.5", 0, "1,7005.062866177783\n2,7005.100564669445\n"),
    Pin("zeta refine --lo 10.0 --hi 14.0", 0, "", ""),
    # --tol is below the float spacing there, 3.6e-12
    Pin("zeta refine --lo 29000 --hi 29001 --tol 1e-12", 0, "1,29000.31225676043\n2,29000.925985179587\n"),
    Pin(
        "zeta verify --T 100.0", 0, _VERIFY_100,
        '{"T": 100.0, "sign_change_count": 29, "analytic_count": 29, "verified": true, '
        '"z_evaluations": 31}\n',
    ),
    Pin("zeta verify --T 100.0 --step 0.05", 0, _VERIFY_100),
    Pin("zeta verify --T 100 --step 0.05", 0, _VERIFY_100),
    Pin("zeta verify --T 300", 0, "300.0,138,138,true,151\n", err=_near_half(300.0, 137.711926)),
    Pin("zeta verify --T 8000 --step 0.2", 0, "8000.0,7830,7830,true,12191\n", err=_near_half(8000.0, 7830.432085)),
    # the analytic count 4 is wrong, N(30) = 3 (ROADMAP item 3)
    Pin(
        "zeta verify --T 30.0 --max-refinements 1", 1, _VERIFY_30,
        '{"T": 30.0, "sign_change_count": 3, "analytic_count": 4, "verified": false, '
        '"z_evaluations": 260}\n',
        _NEAR_HALF,
    ),
    # the analytic count 4 is wrong, N(30) = 3 (ROADMAP item 3)
    Pin("zeta verify --T 30.0 --step 0.05 --max-refinements 1", 1, _VERIFY_30, err=_NEAR_HALF),
    # the analytic count 4 is wrong, N(30) = 3 (ROADMAP item 3)
    Pin("zeta verify --T 30 --max-refinements 1", 1, _VERIFY_30, err=_NEAR_HALF),
    Pin(
        "zeta verify --T 13.0", 2, "", "",
        "error: T must be >= 14 (below the first zero the report is vacuous)\n",
    ),
    Pin("zeta theta --t 5.0", 2, "", err="error: t must be >= 10.0; the asymptotics used here need it\n"),
    Pin("zeta z --t 9.9", 2, "", err="error: t must be >= 10.0; the asymptotics used here need it\n"),
    Pin("zeta scan --lo 30.0 --hi 10.0", 2, "", err="error: t_hi must exceed t_lo\n"),
    Pin("zeta theta --t inf", 2, "", err=_FINITE),
    Pin("zeta z --t inf", 2, "", err=_FINITE),
    Pin("zeta scan --lo 20 --hi inf", 2, "", err=_FINITE),
    Pin("zeta refine --lo 20 --hi inf", 2, "", err=_FINITE),
    Pin("zeta count --at inf", 2, "", err=_FINITE),
    Pin("zeta verify --T inf", 2, "", err=_FINITE),
    Pin("zeta scan --lo 10 --hi 30 --step inf", 2, "", err=_STEP),
    Pin("zeta scan --lo 10 --hi 30 --step nan", 2, "", err=_STEP),
    Pin("zeta refine --lo 10 --hi 30 --step inf", 2, "", err=_STEP),
    Pin("zeta refine --lo 10 --hi 30 --step nan", 2, "", err=_STEP),
    Pin("zeta verify --T 100 --step inf", 2, "", err=_STEP),
    Pin("zeta verify --T 100 --step nan", 2, "", err=_STEP),
    Pin("zeta scan --lo 10 --hi 30000 --step 1e-310", 2, "", err=_TINY_STEP),
    Pin("zeta scan --lo 10 --hi 30000 --step 5e-324", 2, "", err=_TINY_STEP),
    # 3e16 grid points: numpy refuses the 213 PiB at once and allocates nothing
    Pin(
        "zeta scan --lo 10 --hi 30000 --step 1e-12", 2, "",
        err="error: Unable to allocate 213. PiB for an array with shape (29990000000000000,) "
        "and data type float64\n",
    ),
    Pin("zeta z --t 1e300", 2, "", err=_Z_RANGE),
    Pin("zeta scan --lo 20 --hi 4e4", 2, "", err=_Z_RANGE),
    Pin("zeta refine --lo 20 --hi 4e4", 2, "", err=_Z_RANGE),
    Pin("zeta verify --T 4e4", 2, "", err=_Z_RANGE),
    Pin("zeta theta --t 1e100", 2, "", err=_THETA_RANGE),
    Pin("zeta count --at 1e200", 2, "", err=_THETA_RANGE),
    Pin(
        "zeta theta", 2, "",
        err="usage: conjlab zeta theta [-h] [--format {csv,jsonl}] --t T\n"
        "conjlab zeta theta: error: the following arguments are required: --t\n",
    ),
    Pin("zeta nonsense", 2, "", "", "usage:"),
    Pin("zeta unknowncmd", 2, "", err="usage: conjlab zeta "),
    Pin("nonsense", 2, "", err="usage: conjlab "),
]


def observe(pin: Pin, fmt: str, run) -> tuple:
    """(status, stdout, stderr) of one run of ``pin`` in ``fmt``, in the pin's
    terms: stdout as its digest where the pin holds one, stderr cut to the
    length of a pin that is neither empty nor ends in a newline.  Equal to
    ``expect(pin, fmt)`` when it holds."""
    status, out, err = run(pin.argv.split() + (["--format", "jsonl"] if fmt == "jsonl" else []))
    if expect(pin, fmt)[1].startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    whole = pin.err.endswith("\n") or not pin.err
    return status, out, err if whole else err[: len(pin.err)]


def expect(pin: Pin, fmt: str) -> tuple:
    return pin.status, pin.csv if fmt == "csv" else pin.jsonl, pin.err


def formats(pin: Pin) -> list[str]:
    return ["csv"] if pin.jsonl is None else ["csv", "jsonl"]


def round_trip(run) -> tuple:
    """(status, stdout) of realizing the parity vector of 27's first 4096
    steps; (0, "4096,27,27\\n") when it realizes back to 27."""
    bits = run(["parity", "extract", "--n", "27", "--k", "4096"])[1].split(",")[2].strip()
    return run(["parity", "realize", "--bits", bits])[:2]


REALIZED = (0, "4096,27,27\n")


def in_process(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch.dict(os.environ, COLUMNS="80"),
    ):
        try:
            status = cli.main(argv)
        except SystemExit as e:  # argparse: --version, usage errors
            status = e.code
    return status, out.getvalue(), err.getvalue()


def child(command: list[str]):
    """A runner like ``in_process`` that runs ``command`` + argv as a child, 80 columns wide."""

    def run(argv: list[str]) -> tuple:
        env = {**os.environ, "COLUMNS": "80"}
        r = subprocess.run(command + argv, capture_output=True, text=True, timeout=300, env=env)
        return r.returncode, r.stdout, r.stderr

    return run


installed = child(["conjlab"])


if __name__ == "__main__":
    bad = 0
    for pin in PINS:
        for fmt in formats(pin):
            got, want = observe(pin, fmt, installed), expect(pin, fmt)
            if got != want:
                bad += 1
                print(f"FAIL {pin.argv} [{fmt}]: got {got!r}, want {want!r}")
    got = round_trip(installed)
    if got != REALIZED:
        bad += 1
        print(f"FAIL parity realize of parity extract --n 27 --k 4096: got {got!r}")
    print(f"{len(PINS)} rows, {bad} failed")
    sys.exit(1 if bad else 0)
