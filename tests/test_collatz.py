import json

import numpy as np
import pytest

from conjlab.collatz import (
    iterate,
    step,
    total_stopping_time,
    trajectory,
    verify_range,
)


def _follow(n, budget, exit_floor=2):
    # plain-integer reference: (exited, steps_used, last_value)
    v = n
    for k in range(budget + 1):
        if v < exit_floor:
            return True, k, v
        if k == budget:
            break
        v = (3 * v + 1) // 2 if v % 2 else v // 2
    return False, budget, v


@pytest.mark.parametrize("n,out", [(1, 2), (2, 1), (27, 41), (4, 2), (5, 8)])
def test_step_values(n, out):
    assert step(n) == out


def test_step_domain():
    with pytest.raises(ValueError):
        step(0)


def test_iterate_identity_and_cycle():
    assert iterate(7, 0) == 7
    assert iterate(1, 2) == 1
    for m in range(0, 20):
        assert iterate(1, 2 * m) == 1
        assert iterate(1, 2 * m + 1) == 2


def test_iterate_27_reaches_1_at_70():
    v = 27
    for _ in range(70):
        v = (3 * v + 1) // 2 if v % 2 else v // 2
    assert v == 1
    assert iterate(27, 70) == 1
    assert iterate(27, 69) != 1


def test_iterate_composition_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int.from_bytes(rng.bytes(16), "big") % (2**128 - 1) + 1
        a = int(rng.integers(0, 65))
        b = int(rng.integers(0, 65))
        assert iterate(n, a + b) == iterate(iterate(n, a), b)


def test_step_monotonicity():
    rng = np.random.default_rng(12)
    for n in list(range(2, 200)) + [int(rng.integers(2, 2**40)) for _ in range(200)]:
        if n % 2 == 0:
            assert step(n) < n
        elif n > 1:
            assert step(n) > n


def test_trajectory_examples():
    t = trajectory(5, 100)
    assert t.iterates == (5, 8, 4, 2, 1)
    assert t.parities == (1, 0, 0, 0, 1)
    assert not t.truncated

    t = trajectory(1, 0)
    assert t.iterates == (1,)
    assert not t.truncated

    t = trajectory(27, 10)
    assert len(t.iterates) == 11
    assert t.truncated


def test_trajectory_internal_consistency():
    t = trajectory(97, 200)
    for a, b in zip(t.iterates, t.iterates[1:]):
        assert b == step(a)
    assert all(p == v % 2 for v, p in zip(t.iterates, t.parities))
    assert t.iterates[-1] == 1


def test_total_stopping_time_values():
    assert total_stopping_time(1, 10).total_stopping_time == 0
    assert total_stopping_time(2, 10).total_stopping_time == 1
    rec = total_stopping_time(27, 1000)
    assert rec.total_stopping_time == 70
    # max excursion by direct scan
    v, mx = 27, 27
    while v != 1:
        v = (3 * v + 1) // 2 if v % 2 else v // 2
        mx = max(mx, v)
    assert rec.max_excursion == mx == 4616


def test_total_stopping_time_budget():
    assert total_stopping_time(27, 10) is None
    assert total_stopping_time(27, 70) is not None


def test_total_stopping_time_zero_iff_one():
    for n in range(1, 50):
        rec = total_stopping_time(n, 10**4)
        assert (rec.total_stopping_time == 0) == (n == 1)
        if n % 2 == 1:
            assert rec.max_excursion >= n


def test_verify_range_single():
    rep = verify_range(5, 5, 10)
    assert rep.verified_count == 1
    assert rep.counterexample_candidates == []
    assert rep.max_stopping_time_seen == 4


def test_verify_range_empty_is_error():
    with pytest.raises(ValueError):
        verify_range(10, 5, 10)


def test_verify_range_counts_partition():
    rep = verify_range(1, 100, 6)
    total = rep.verified_count + len(rep.counterexample_candidates)
    assert total == 100


def test_verify_range_against_reference():
    budget = 50
    rep = verify_range(1, 2000, budget, chunk_size=256)
    cand = {c.n: c for c in rep.counterexample_candidates}
    verified = 0
    max_steps = -1
    for n in range(1, 2001):
        exited, k, last = _follow(n, budget)
        if exited:
            verified += 1
            max_steps = max(max_steps, k)
            assert n not in cand
        else:
            assert cand[n].steps_taken == budget
            assert cand[n].last_iterate == last
    assert rep.verified_count == verified
    assert rep.max_stopping_time_seen == max_steps


def test_candidate_last_iterate():
    rep = verify_range(27, 27, 10)
    (c,) = rep.counterexample_candidates
    _, _, last = _follow(27, 10)
    assert (c.n, c.steps_taken, c.last_iterate) == (27, 10, last)


def test_chunking_determinism():
    kwargs = dict(budget=200)
    reports = [
        verify_range(1, 4096, chunk_size=cs, **kwargs)
        for cs in (4096, 2048, 512)
    ]
    blobs = {r.to_json() for r in reports}
    assert len(blobs) == 1
    assert reports[0].chunk_count == 1
    assert reports[2].chunk_count == 8


def test_worker_determinism():
    a = verify_range(1, 20000, 300, chunk_size=1024, workers=1)
    b = verify_range(1, 20000, 300, chunk_size=1024, workers=4)
    assert a.to_json() == b.to_json()


def test_cutoff_soundness():
    plain = verify_range(1000, 3000, 500)
    floored = verify_range(1000, 3000, 500, floor=1000)
    assert not plain.counterexample_candidates
    assert not floored.counterexample_candidates
    assert plain.verified_count == floored.verified_count


def test_floor_one_equals_none():
    assert verify_range(1, 500, 100, floor=1).to_json() == verify_range(1, 500, 100).to_json()


def test_uint64_promotion_matches_reference():
    # starts straddling the 3v+1 overflow guard force mid-flight promotion
    guard = (2**64 - 2) // 3
    lo, hi = guard - 8, guard + 8
    rep = verify_range(lo, hi, 2000)
    cand = {c.n: (c.steps_taken, c.last_iterate) for c in rep.counterexample_candidates}
    verified = 0
    for n in range(lo, hi + 1):
        exited, k, last = _follow(n, 2000)
        if exited:
            verified += 1
        else:
            assert cand[n] == (2000, last)
    assert rep.verified_count == verified


def test_python_path_beyond_uint64():
    lo = 2**70 + 1
    rep = verify_range(lo, lo + 4, 3000)
    total = rep.verified_count + len(rep.counterexample_candidates)
    assert total == 5
    for c in rep.counterexample_candidates:
        exited, _, last = _follow(c.n, 3000)
        assert not exited and c.last_iterate == last


def test_report_serialization_fields():
    rep = verify_range(1, 10, 100)
    doc = json.loads(rep.to_json())
    assert set(doc) == {
        "lo",
        "hi",
        "verified_count",
        "max_stopping_time_seen",
        "counterexample_candidates",
    }
    assert doc["verified_count"] == 10


def _reference_doc(lo, hi, budget, floor=None):
    # the report verify_range must produce, built start by start from _follow
    exit_floor = 2 if floor is None else max(2, floor)
    verified, max_steps, cands = 0, -1, []
    for n in range(lo, hi + 1):
        exited, k, last = _follow(n, budget, exit_floor)
        if exited:
            verified += 1
            max_steps = max(max_steps, k)
        else:
            cands.append({"n": n, "steps_taken": k, "last_iterate": last})
    return {
        "lo": lo,
        "hi": hi,
        "verified_count": verified,
        "max_stopping_time_seen": max(max_steps, 0),
        "counterexample_candidates": cands,
    }


@pytest.mark.parametrize("lo,hi", [(1, 3000), (700, 3700), (3 * 65536 - 1500, 3 * 65536 + 1500)])
@pytest.mark.parametrize("budget", [1, 3, 7, 120, 1000])
def test_descent_sweep_matches_reference(lo, hi, budget):
    rep = verify_range(lo, hi, budget, chunk_size=256)
    assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget)


@pytest.mark.parametrize("floor_at", ["lo", "inside", "above"])
@pytest.mark.parametrize("lo", [1, 5, 100, 5000])
@pytest.mark.parametrize("budget", [3, 50, 1000])
def test_descent_sweep_with_floor_matches_reference(floor_at, lo, budget):
    hi = lo + 2000
    floor = {"lo": lo, "inside": lo + 777, "above": hi + 1}[floor_at]
    rep = verify_range(lo, hi, budget, floor, chunk_size=300)
    assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget, floor)


@pytest.mark.parametrize("budget", [1, 7, 200, 10**5])
def test_descent_sweep_independent_of_blocks_and_workers(budget):
    lo, hi = 1, 3 * 65536 + 50
    ref = verify_range(lo, hi, budget, chunk_size=65536).to_json()
    assert verify_range(lo, hi, budget, chunk_size=65536, workers=2).to_json() == ref
    assert verify_range(lo, hi, budget, chunk_size=256, workers=2).to_json() == ref
    small = verify_range(1, 3000, budget, chunk_size=65536).to_json()
    assert json.loads(small) == _reference_doc(1, 3000, budget)
    for chunk_size in (1, 7, 256):
        for workers in (1, 2):
            rep = verify_range(1, 3000, budget, chunk_size=chunk_size, workers=workers)
            assert rep.to_json() == small


def test_descent_sweep_workers_share_the_step_arrays():
    # phase 1 threads write disjoint slices of two shared arrays
    import sys

    ref = verify_range(1, 30000, 300, chunk_size=97).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert verify_range(1, 30000, 300, chunk_size=97, workers=8).to_json() == ref
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("budget", [5, 7, 40, 2000])
def test_descent_sweep_straddling_residue_blocks(budget):
    lo, hi = 2 * 65536 - 700, 2 * 65536 + 700
    for chunk_size in (65536, 333):
        rep = verify_range(lo, hi, budget, chunk_size=chunk_size)
        assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget)


@pytest.mark.parametrize("budget", [3, 20, 3000])
def test_descent_sweep_around_residue_jump_bound(budget):
    # below 2^80 // 3^16 the first 16 steps are taken in closed form in uint64
    limit = 2**80 // 3**16
    lo, hi = limit - 150, limit + 150
    for floor in (None, limit - 10**6, limit + 1):
        rep = verify_range(lo, hi, budget, floor, chunk_size=128)
        assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget, floor)
    # n = -1 mod 2^16 climbs for 16 steps to 3^16 (n + 1) / 2^16 - 1, the
    # largest T^16 of any n; the last such start below the bound and the
    # first above it
    last = (limit >> 16 << 16) - 1
    for n in (last, last + 2**16):
        rep = verify_range(n - 3, n + 3, budget, chunk_size=4)
        assert json.loads(rep.to_json()) == _reference_doc(n - 3, n + 3, budget)


def test_descent_sweep_crossing_the_python_path():
    # chunks below 2^63 run in uint64 and link to nothing above; the rest run in Python ints
    lo, hi = 2**63 - 40, 2**63 + 40
    rep = verify_range(lo, hi, 1500, chunk_size=16)
    assert json.loads(rep.to_json()) == _reference_doc(lo, hi, 1500)


def test_floor_above_uint64_makes_every_start_a_root():
    rep = verify_range(1, 10, 100, floor=2**70)
    assert json.loads(rep.to_json()) == _reference_doc(1, 10, 100, 2**70)


def test_residue_table_is_the_first_descent():
    from conjlab.collatz import _residue_table

    first, coef, t_r = _residue_table()
    rng = np.random.default_rng(13)
    for r in rng.integers(0, 2**16, size=300).tolist():
        j = int(first[r])
        odd = [iterate(r, i) & 1 for i in range(j)]
        a = sum(odd)
        assert int(coef[r]) == 3**a * 2 ** (16 - j)
        assert all(3 ** sum(odd[:i]) > 2**i for i in range(1, j))
        assert j == 16 or 3**a < 2**j
        for q in (0, 1, 12345, 2**37 + 5):
            n = q * 2**16 + r
            assert int(coef[r]) * q + int(t_r[r]) == iterate(n, j)


def test_residue_table_not_built_at_import():
    import subprocess
    import sys

    code = "import conjlab, conjlab.collatz as c; print(c._residue_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_verify_range_rejects_workers_below_one_first():
    with pytest.raises(ValueError, match="workers must be at least 1"):
        verify_range(1, 10**9, 10, workers=0)
