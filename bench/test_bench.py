"""Self-tests of the benchmark: output checks, span arithmetic, reporting.

    python3 -m pytest -q bench

The check tests run every op once at smoke size through the real CLI,
so they also confirm that the checks accept this checkout's output.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import layers
import ops
import run
from spans import Recorder, covered, self_time

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SEED = 11


def _cli(argv, traced_to=None):
    if traced_to is None:
        cmd = [sys.executable, "-m", "conjlab.cli", *argv]
    else:
        cmd = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(traced_to), *argv]
    p = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


SMOKE = [ops.OP_MAKERS[name](SEED, False) for name in ops.OP_NAMES]


@pytest.fixture(scope="module")
def smoke_outputs():
    return {op.name: [_cli(c.argv) for c in op.calls] for op in SMOKE}


def _replace_field(text: str, line: int, fld: int, value: str) -> str:
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[fld] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


# One wrong-but-well-formed output per call: (call index, line, field, new value).
SEMANTIC = {
    "sweep": [(0, 0, 4, "330")],
    "frontier": [(0, 0, 2, "255")],
    "fraction": [(0, 0, 3, "0.25")],
    "bijection": [(0, 0, 1, "false")],
    "walk": [(0, 0, 2, "0.1"), (1, 0, 3, "0.6")],
    "growth": [(0, 0, 1, "0.9")],
    "compare": [(0, 0, 2, "607927"), (0, 0, 5, "1.5")],
    "scan": [(0, 0, 2, "30"), (0, 0, 3, "false")],
    "refine": [(0, 0, 1, "14.2"), (0, 1, 1, "14.0")],
}


@pytest.mark.parametrize("op", SMOKE, ids=lambda op: op.name)
def test_check_accepts_real_output(op, smoke_outputs):
    for call, out in zip(op.calls, smoke_outputs[op.name]):
        call.check(out)


@pytest.mark.parametrize("op", SMOKE, ids=lambda op: op.name)
def test_check_rejects_corrupted_output(op, smoke_outputs):
    for i, (call, good) in enumerate(zip(op.calls, smoke_outputs[op.name])):
        first = good.split(",", 1)
        corrupted = [
            "",
            "9" + good,  # first field of the first line
            good + good.splitlines(keepends=True)[-1],  # a repeated line
            good.rstrip("\n"),  # truncated last line
            first[0] + ";" + first[1],  # wrong separator
        ]
        corrupted += [
            _replace_field(good, line, fld, value)
            for call_index, line, fld, value in SEMANTIC[op.name]
            if call_index == i
        ]
        for bad in corrupted:
            assert bad != good
            with pytest.raises(ops.CheckFailed):
                call.check(bad)


def test_full_size_ops_are_the_workload_ops():
    for workload, own in ops.WORKLOADS.items():
        op_list = ops.workload_ops(workload, SEED)
        assert [op.name for op in op_list] == list(ops.OP_NAMES)
        for op in op_list:
            full = ops.OP_MAKERS[op.name](SEED, True, op.workers)
            assert (op.argvs == full.argvs) == (op.name in own)
            assert op.workers in (None, 1)


def test_seed_feeds_every_seed_flag_and_the_frontier():
    a = {op.name: op for op in ops.workload_ops("collatz", 5)}
    b = {op.name: op for op in ops.workload_ops("collatz", 6)}
    for name in ("frontier", "fraction", "walk", "compare"):
        assert a[name].argvs != b[name].argvs
    for name in ("sweep", "bijection", "growth", "scan", "refine"):
        assert a[name].argvs == b[name].argvs
    assert ops.frontier_lo(5) == 2**62 + 5 * 2**16
    assert ops.frontier_lo(2**20 + 5) == ops.frontier_lo(5)


def test_problem_reports_exit_code_timeout_and_check():
    call = ops.Call(("x",), ops._exact("ok\n"))
    assert run._problem(call, 0, "ok\n", "", False) is None
    assert "exit code 1" in run._problem(call, 1, "ok\n", "boom", False)
    assert "timed out" in run._problem(call, 0, "ok\n", "", True)
    assert "check failed" in run._problem(call, 0, "no\n", "", False)


# --- span arithmetic -------------------------------------------------------


def _span(sid, start, end, parent=None, thread=1):
    return {"id": sid, "name": f"s{sid}", "parent": parent, "thread": thread,
            "start": start, "end": end, "attrs": {}}


def test_covered_is_the_union_clipped_to_the_span():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered(0, 10, [(1, 9), (2, 3)]) == 8
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_time_nested():
    root = _span(1, 0.0, 10.0)
    child = _span(2, 1.0, 4.0, parent=1)
    grandchild = _span(3, 2.0, 3.0, parent=2)
    assert self_time(root, [child]) == pytest.approx(7.0)
    assert self_time(child, [grandchild]) == pytest.approx(2.0)
    assert self_time(grandchild, []) == pytest.approx(1.0)


def test_self_time_worker_threads_overlap():
    root = _span(1, 0.0, 10.0)
    # two workers, overlapping each other: the union (2..8) is covered, not the sum
    kids = [_span(2, 2.0, 6.0, 1, thread=2), _span(3, 3.0, 8.0, 1, thread=3)]
    assert self_time(root, kids) == pytest.approx(4.0)


def test_recorder_parents_worker_spans_to_the_submitting_call():
    rec = Recorder()
    outer = rec.open("outer")

    def work():
        s = rec.open("worker")
        inner = rec.open("inner")
        time.sleep(0.01)
        rec.close(inner)
        rec.close(s)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    rec.close(outer)

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)
    workers = by_name["worker"]
    assert len(workers) == 2 and len(by_name["inner"]) == 2
    assert all(w["parent"] == outer["id"] for w in workers)
    assert {s["parent"] for s in by_name["inner"]} == {w["id"] for w in workers}
    assert len({w["thread"] for w in workers} | {outer["thread"]}) == 3
    root = by_name["outer"][0]
    expected = (root["end"] - root["start"]) - covered(
        root["start"], root["end"], [(w["start"], w["end"]) for w in workers]
    )
    assert self_time(root, workers) == pytest.approx(expected)
    assert 0 <= self_time(root, workers) < root["end"] - root["start"]


def test_pass_self_time_subtracts_only_direct_children():
    p = layers.Pass({
        "a": [dict(_span(1, 0.0, 10.0), name="mobius.mertens"),
              dict(_span(2, 1.0, 5.0, parent=1), name="mobius.mobius_segments"),
              dict(_span(3, 2.0, 3.0, parent=2), name="rng.substream")],
        "b": [dict(_span(1, 0.0, 2.0), name="mobius.mertens")],
    })
    assert p.self_s("mobius.mertens") == pytest.approx(6.0 + 2.0)
    assert p.busy("mobius.mertens") == pytest.approx(12.0)
    assert p.ancestor(p.named("rng.substream")[0], ("mobius.mertens",))["key"] == ("a", 1)


# --- reporting -------------------------------------------------------------


def test_median_and_sample_counts():
    walls = {"sweep": [3.0, 1.0, 2.0], "scan": [4.0, 1.0, 2.0, 10.0]}
    samples = {
        name: [run.Sample(wall=w, maxrss_kib=1024 * (i + 1)) for i, w in enumerate(ws)]
        for name, ws in walls.items()
    }
    metrics, counts = run.e2e_metrics([0.3, 0.1, 0.2, 0.9, 0.25], samples, 20, 1)
    assert metrics["sweep_s"] == (2.0, "s")
    assert metrics["scan_s"] == (3.0, "s")
    assert metrics["setup_s"] == (0.25, "s")
    assert metrics["wall_s"] == (5.0, "s")
    assert metrics["peak_rss_mb"] == (4.0, "MiB")
    assert metrics["pass_frac"] == (0.95, "ratio")
    assert counts == {"setup_s": 5, "sweep_s": 3, "scan_s": 4}


def test_setup_is_spawned_once_per_round_and_reported_apart():
    calls = []

    class FakeRunner:
        def run(self, op):
            calls.append(op.name)
            return run.Sample(wall=float(len(calls)))

    setup, samples = run.timed_run(FakeRunner(), ops.workload_ops("collatz", SEED), 0.01)
    round_names = [ops.VERSION.name, *ops.OP_NAMES]
    assert calls[: len(round_names)] == round_names
    assert set(samples) == set(ops.OP_NAMES)
    assert setup == [float(i + 1) for i, name in enumerate(calls) if name == ops.VERSION.name]
    assert len(setup) >= len(samples["refine"]) >= 1


def test_percentile_nearest_rank():
    values = sorted(float(i) for i in range(1, 101))
    assert layers._percentile(values, 0.99) == 99.0
    assert layers._percentile(values, 0.5) == statistics.median_low(values)
    assert layers._percentile([7.0], 0.99) == 7.0


# --- the traced child ------------------------------------------------------


def test_traced_stdout_is_identical_and_every_layer_metric_is_emitted(tmp_path, smoke_outputs):
    op_spans = {}
    for op in SMOKE:
        for i, call in enumerate(op.calls):
            path = tmp_path / f"{op.name}.{i}.json"
            assert _cli(call.argv, traced_to=path) == smoke_outputs[op.name][i]
            dump = json.loads(path.read_text())
            assert Path(dump["meta"]["conjlab_file"]).is_relative_to(ROOT / "src")
            assert dump["meta"]["import_s"] > 0
            op_spans[f"{op.name}.{i}"] = dump["spans"]
    metrics = layers.layer_metrics(op_spans)
    assert metrics["zeta.refine_zero.calls"] == ops.ZERO_COUNT[30]
    assert metrics["mobius.sieve_passes"] == 2.0
    assert metrics["collatz.verified_frac"] == 1.0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_run = {"cli.import_s", "collatz.scaling_eff", "parity.scaling_eff"}
    per_run |= {f"{kind}.{n}" for kind in ("cli.cpu_per_wall", "trace.overhead_frac")
                for n in ops.OP_NAMES}
    assert {m["name"] for m in spec["per_layer"]} == set(metrics) | per_run
    assert all(m["unit"] == layers.unit(m["name"]) for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "peak_rss_mb", "pass_frac"} | {
        f"{n}_s" for n in ops.OP_NAMES
    }
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
