"""conjlab benchmark: times the CLI end to end, as a user runs it.

    python3 bench/run.py --workload collatz|riemann --seed N \
        --seconds S --trace 0|1

Run from anywhere; it uses the checkout it sits in.  Every op is a fresh
``python -m conjlab.cli ...`` child with this checkout's ``src`` first on
the path, run one at a time.  Each run warms up with one untimed op, and
then cycles through the workload's ops for ``--seconds`` seconds.

With ``--trace 0`` it reports the end-to-end metrics: medians of the
ops' spawn-to-exit times, start-up time (``conjlab --version``, spawned
once per round so that its samples span the run like the ops'), peak
memory and the share of ops that passed their output check.  With
``--trace 1`` it runs each op untraced and then once more through
``traced_cli.py``, in passes over the workload, and reports the median
over passes of the per-layer metrics of ``layers.py`` plus each op's
tracing overhead.

The last stdout line is the result, as JSON; the line before it records
the seed, the machine, the versions and the sample counts.  README.md
says why each workload exists and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every child is killed by then; a run must end within 180 s
MIB = 1024.0  # ru_maxrss is in KiB on Linux
# Workered ops whose run at nproc workers also gives the scaling efficiency of a layer.
SCALING = {"sweep": "collatz.verify_range", "fraction": "parity.random_fraction"}


@dataclass
class Sample:
    """One op: the sum over its CLI invocations."""

    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kib: int = 0
    stdout: str = ""
    spans: dict = field(default_factory=dict)
    import_s: list = field(default_factory=list)


class Runner:
    """Spawns ops one at a time and counts the ones that fail."""

    def __init__(self, tmpdir: str, deadline: float):
        self.tmpdir = tmpdir
        self.deadline = deadline
        path = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[tuple, str] = {}

    def spawn(self, argv: list[str]):
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        timed_out = []

        with tempfile.TemporaryFile(dir=self.tmpdir) as out, tempfile.TemporaryFile(
            dir=self.tmpdir
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                timed_out.append(True)
                proc.kill()

            killer = threading.Timer(timeout, kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (
                proc.returncode,
                out.read().decode(errors="replace"),
                err.read().decode(errors="replace"),
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss,
                bool(timed_out),
            )

    def run(self, op: ops.Op, traced: bool = False, expected: str | None = None) -> Sample:
        """Run every call of ``op`` and check it; a failure is counted, never raised.

        Stdout must match ``expected`` when given, and otherwise every
        earlier passing run of the same argv, traced or not.
        """
        self.attempted += 1
        s = Sample()
        problem = None
        for i, call in enumerate(op.calls):
            if traced:
                spans_path = os.path.join(self.tmpdir, f"spans-{op.name}-{i}.json")
                argv = [sys.executable, str(BENCH / "traced_cli.py"), spans_path, *call.argv]
            else:
                argv = [sys.executable, "-m", "conjlab.cli", *call.argv]
            rc, out, err, wall, cpu, rss, timed_out = self.spawn(argv)
            s.wall += wall
            s.cpu += cpu
            s.maxrss_kib = max(s.maxrss_kib, rss)
            s.stdout += out
            if problem is None:
                problem = _problem(call, rc, out, err, timed_out)
            if traced and rc == 0 and not timed_out:
                with open(spans_path) as f:
                    dump = json.load(f)
                os.unlink(spans_path)
                s.spans[f"{op.name}.{i}"] = dump["spans"]
                s.import_s.append(dump["meta"]["import_s"])
        key = op.argvs
        if problem is None:
            ref = self.reference.setdefault(key, s.stdout) if expected is None else expected
            if s.stdout != ref:
                problem = "stdout differs from the reference run"
        if problem is not None:
            self.failures.append(f"{op.name} {'traced ' if traced else ''}{key}: {problem}")
        return s


def _problem(call: ops.Call, rc: int, out: str, err: str, timed_out: bool) -> str | None:
    if timed_out:
        return f"timed out after {OP_TIMEOUT_S} s"
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-300:]}"
    try:
        call.check(out)
    except ops.CheckFailed as e:
        return f"check failed: {e}"
    return None


def _cycle_until(deadline: float, op_list):
    """Yield ops in round-robin order until the deadline passes."""
    while True:
        for op in op_list:
            if time.monotonic() >= deadline:
                return
            yield op


def timed_run(runner: Runner, op_list, seconds: float) -> tuple[list[float], dict]:
    """Start-up times and op samples, from rounds of ``--version`` and every op."""
    op_list = [ops.VERSION, *op_list]
    samples = {op.name: [] for op in op_list}
    for op in _cycle_until(time.monotonic() + seconds, op_list):
        samples[op.name].append(runner.run(op))
    # a round may be cut short; every op still needs a sample
    for op in op_list:
        if not samples[op.name]:
            samples[op.name].append(runner.run(op))
    setup = [s.wall for s in samples.pop(ops.VERSION.name)]
    return setup, samples


def e2e_metrics(setup: list[float], samples: dict, attempted: int, failed: int):
    """End-to-end metrics as (value, unit), and the sample count behind each."""
    per_op = {f"{n}_s": statistics.median(s.wall for s in v) for n, v in samples.items()}
    peak = max(s.maxrss_kib for v in samples.values() for s in v)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_op.values()), "s"),
        "peak_rss_mb": (peak / MIB, "MiB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        **{name: (value, "s") for name, value in per_op.items()},
    }
    counts = {"setup_s": len(setup), **{f"{n}_s": len(v) for n, v in samples.items()}}
    return metrics, counts


def traced_run(runner: Runner, op_list, seconds: float, nproc: int):
    """Per-layer metrics as (value, unit), and the sample counts behind them."""
    untraced = {op.name: [] for op in op_list}
    traced = {op.name: [] for op in op_list}
    passes = []
    deadline = time.monotonic() + seconds
    while True:
        pass_started = time.monotonic()
        failed_before = len(runner.failures)
        op_spans, imports, scaling = {}, [], {}
        for op in op_list:
            u = runner.run(op)
            t = runner.run(op, traced=True)
            untraced[op.name].append(u)
            traced[op.name].append(t)
            op_spans.update(t.spans)
            imports.extend(t.import_s)
            if op.workers is not None:
                par = runner.run(op.with_workers(nproc), traced=True, expected=u.stdout)
                if op.name in SCALING:
                    scaling[op.name] = layers.scaling_eff(
                        _all_spans(t), _all_spans(par), SCALING[op.name], nproc
                    )
        # a pass with a failed op lacks spans; the failure is already counted
        if len(runner.failures) == failed_before:
            m = layers.layer_metrics(op_spans)
            m["cli.import_s"] = statistics.median(imports)
            m["collatz.scaling_eff"] = scaling["sweep"]
            m["parity.scaling_eff"] = scaling["fraction"]
            passes.append(m)
        # stop rather than start a pass that would overrun the run
        if time.monotonic() + (time.monotonic() - pass_started) > deadline:
            break

    counts = {"passes": len(passes), **{n: len(v) for n, v in untraced.items()}}
    names = passes[0] if passes else {}
    out = {name: statistics.median(p[name] for p in passes) for name in names}
    for name in untraced:
        u = statistics.median(s.wall for s in untraced[name])
        t = statistics.median(s.wall for s in traced[name])
        out[f"trace.overhead_frac.{name}"] = (t - u) / u
        out[f"cli.cpu_per_wall.{name}"] = statistics.median(s.cpu / s.wall for s in untraced[name])
    return {name: (value, layers.unit(name)) for name, value in out.items()}, counts


def _all_spans(sample: Sample) -> list[dict]:
    return [s for spans in sample.spans.values() for s in spans]


def provenance(runner: Runner, nproc: int) -> dict:
    probe = "import conjlab, numpy; print(conjlab.__file__); print(numpy.__version__)"
    rc, out, err, *_ = runner.spawn([sys.executable, "-c", probe])
    runner.attempted += 1
    lines = out.split()
    conjlab_file = lines[0] if rc == 0 and lines else None
    if conjlab_file is None or not Path(conjlab_file).resolve().is_relative_to(ROOT / "src"):
        runner.failures.append(f"conjlab is not imported from {ROOT / 'src'}: {out!r} {err!r}")
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = r.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": lines[1] if rc == 0 and len(lines) > 1 else None,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(ops.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "conjlab" / "cli.py").is_file():
        print(f"error: no conjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through Runner.spawn, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    op_list = ops.workload_ops(a.workload, a.seed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="conjlab-bench-", dir=ROOT / ".bench_build")
    try:
        runner = Runner(tmpdir, started + RUN_LIMIT_S)
        record = provenance(runner, nproc)
        runner.run(op_list[0])  # warm-up: file cache and bytecode, untimed
        if a.trace:
            metrics, counts = traced_run(runner, op_list, a.seconds, nproc)
        else:
            setup, samples = timed_run(runner, op_list, a.seconds)
            metrics, counts = e2e_metrics(
                setup, samples, runner.attempted, len(runner.failures)
            )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    record.update(
        workload=a.workload,
        seed=a.seed,
        trace=a.trace,
        seconds=a.seconds,
        frontier_lo=ops.frontier_lo(a.seed),
        samples=counts,
        elapsed_s=time.monotonic() - started,
        failures=runner.failures[:20],
    )
    for msg in runner.failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"provenance": record}))
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
