"""Per-layer metrics derived from the spans of one traced pass over a workload.

A pass runs every op of the workload once through ``traced_cli.py``.
Each metric below is computed per pass; ``run.py`` reports the median
over passes.  Busy time is the summed duration of a function's spans
(summed over threads where spans run on workers); self time subtracts
the part covered by child spans.  Every ratio names its base in README.md.
"""

import math
import statistics
from collections import defaultdict

from spans import self_time

MIB = float(1 << 20)
RNG_OWNERS = ("parity.random_fraction", "stochastic.heuristic_walk", "mobius.random_walk_compare")


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def busy(spans, name: str) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Pass:
    """The spans of every op in one pass, keyed so ids stay unique across ops."""

    def __init__(self, op_spans: dict[str, list[dict]]):
        self.spans: list[dict] = []
        self.by_key: dict[tuple, dict] = {}
        self.children: dict[tuple, list[dict]] = defaultdict(list)
        for op, spans in op_spans.items():
            for s in spans:
                s = dict(s, key=(op, s["id"]))
                s["parent_key"] = (op, s["parent"]) if s["parent"] is not None else None
                self.spans.append(s)
                self.by_key[s["key"]] = s
        for s in self.spans:
            if s["parent_key"] is not None:
                self.children[s["parent_key"]].append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        return busy(self.spans, name)

    def self_s(self, name: str) -> float:
        return sum(self_time(s, self.children[s["key"]]) for s in self.named(name))

    def ancestor(self, span: dict, names) -> dict | None:
        key = span["parent_key"]
        while key is not None:
            s = self.by_key[key]
            if s["name"] in names:
                return s
            key = s["parent_key"]
        return None

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(s["attrs"][attr] for s in self.named(name))


def _collatz(p: Pass) -> dict:
    spans = p.named("collatz.verify_range")
    busy_s = p.busy("collatz.verify_range")
    starts = p.attr_sum("collatz.verify_range", "starts")
    return {
        "collatz.verify_range.busy_s": busy_s,
        "collatz.starts_per_s": _ratio(starts, busy_s),
        "collatz.chunks": p.attr_sum("collatz.verify_range", "chunks"),
        "collatz.verified_frac": _ratio(p.attr_sum("collatz.verify_range", "verified"), starts),
        "collatz.max_stopping_time": max(s["attrs"]["max_stopping_time"] for s in spans),
    }


def _parity(p: Pass) -> dict:
    frac_s = p.busy("parity.random_fraction")
    bij_s = p.busy("parity.bijection_check")
    return {
        "parity.random_fraction.busy_s": frac_s,
        "parity.vectors_per_s": _ratio(p.attr_sum("parity.random_fraction", "samples"), frac_s),
        "parity.bijection_check.busy_s": bij_s,
        "parity.residues_per_s": _ratio(p.attr_sum("parity.bijection_check", "residues"), bij_s),
    }


def _stochastic(p: Pass) -> dict:
    emp_s = p.busy("stochastic.empirical_parity_frequency")
    return {
        "stochastic.heuristic_walk.busy_s": p.busy("stochastic.heuristic_walk"),
        "stochastic.empirical_parity_frequency.busy_s": emp_s,
        "stochastic.starts_per_s": _ratio(
            p.attr_sum("stochastic.empirical_parity_frequency", "starts"), emp_s
        ),
    }


def _rng(p: Pass) -> dict:
    calls = p.named("rng.substream")
    owners = {}
    for s in calls:
        owner = p.ancestor(s, RNG_OWNERS)
        if owner is not None:
            owners[owner["key"]] = owner
    sub_s = p.busy("rng.substream")
    return {
        "rng.substream.calls": len(calls),
        "rng.substream.busy_s": sub_s,
        "rng.setup_share": _ratio(sub_s, sum(_dur(s) for s in owners.values())),
    }


def _mobius(p: Pass) -> dict:
    segs = p.named("mobius.mobius_segments")
    seg_s = p.busy("mobius.mobius_segments")
    integers = sum(s["attrs"]["integers"] for s in segs)
    firsts = [s for s in segs if s["attrs"]["index"] == 0]
    largest = max(firsts, key=lambda s: s["attrs"]["limit"])
    later = [_dur(s) for s in segs if s["attrs"]["index"] > 0] or [_dur(s) for s in segs]
    compares = p.named("mobius.random_walk_compare")
    sieved_in_compare = sum(
        s["attrs"]["integers"]
        for s in segs
        if p.ancestor(s, ("mobius.random_walk_compare",)) is not None
    )
    return {
        "mobius.segments": len(segs),
        "mobius.integers_sieved": integers,
        "mobius.sieve_passes": _ratio(
            sieved_in_compare, sum(s["attrs"]["limit"] for s in compares)
        ),
        "mobius.mobius_segments.busy_s": seg_s,
        "mobius.first_segment_s": _dur(largest),
        "mobius.segment_p50_s": statistics.median(later),
        "mobius.integers_per_s": _ratio(integers, seg_s),
        "mobius.mertens.self_s": p.self_s("mobius.mertens"),
        "mobius.growth_statistic.busy_s": p.busy("mobius.growth_statistic"),
        "mobius.random_walk_compare.self_s": p.self_s("mobius.random_walk_compare"),
        "mobius.table_mb_computed": max(
            4 * (s["attrs"]["limit"] + 1) for s in p.named("mobius.mertens")
        ) / MIB,
    }


def _zeta(p: Pass) -> dict:
    zv = p.named("zeta.z_values")
    zv_s = p.busy("zeta.z_values")
    points = p.attr_sum("zeta.z_values", "points")
    terms = p.attr_sum("zeta.z_values", "terms")
    call_s = sorted(_dur(s) for s in zv)
    refines = p.named("zeta.refine_zero")
    in_refine = sum(1 for s in zv if p.ancestor(s, ("zeta.refine_zero",)) is not None)

    scanned = short = 0
    for v in p.named("zeta.verify_rh"):
        kids = p.children[v["key"]]
        count = next(s["attrs"]["count"] for s in kids if s["name"] == "zeta.zero_count_analytic")
        for scan in (s for s in kids if s["name"] == "zeta.sign_changes"):
            pts = sum(
                c["attrs"]["points"]
                for c in p.children[scan["key"]]
                if c["name"] == "zeta.z_values"
            )
            scanned += pts
            if scan["attrs"]["brackets"] < count:
                short += pts

    return {
        "zeta.z_values.calls": len(zv),
        "zeta.z_values.points": points,
        "zeta.points_per_call": _ratio(points, len(zv)),
        "zeta.z_values.busy_s": zv_s,
        "zeta.z_values.call_p50_s": statistics.median(call_s),
        "zeta.z_values.call_p99_s": _percentile(call_s, 0.99),
        "zeta.main_sum_terms": terms,
        "zeta.terms_per_s": _ratio(terms, zv_s),
        "zeta.sign_changes.calls": len(p.named("zeta.sign_changes")),
        "zeta.sign_changes.self_s": p.self_s("zeta.sign_changes"),
        "zeta.scan_waste": _ratio(short, scanned),
        "zeta.refine_zero.calls": len(refines),
        "zeta.evals_per_zero": _ratio(in_refine, len(refines)),
        "zeta.refine_zero.self_s": p.self_s("zeta.refine_zero"),
        "zeta.zero_count_analytic.busy_s": p.busy("zeta.zero_count_analytic"),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[max(rank, 1) - 1]


def layer_metrics(op_spans: dict[str, list[dict]]) -> dict[str, float]:
    """Every per-layer metric of one pass, except those that need two runs."""
    p = Pass(op_spans)
    out = {}
    for part in (_collatz, _parity, _stochastic, _rng, _mobius, _zeta):
        out.update(part(p))
    return out


def scaling_eff(serial: list[dict], parallel: list[dict], name: str, nproc: int) -> float:
    """busy at 1 worker / (nproc x busy at nproc workers) of one function."""
    return _ratio(busy(serial, name), nproc * busy(parallel, name))


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.startswith(("cli.cpu_per_wall.", "trace.overhead_frac.")):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MiB"
    if name.endswith(("_frac", "_share", "_eff", "_passes", "per_call", "per_zero", "_waste")):
        return "ratio"
    return "count"
