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


def _first_crossing():
    # the smallest odd start whose first step lands above the uint64 guard
    from conjlab.collatz import _U64_GUARD

    p = (2 * _U64_GUARD + 3) // 3
    assert p & 1 and step(p) > _U64_GUARD >= step(p - 2)
    return p


def test_uint64_promotion_matches_reference():
    # starts whose first step crosses the uint64 guard force mid-flight promotion
    p = _first_crossing()
    lo, hi = p - 8, p + 8
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
    # phase 1 threads hand their chunks to phase 2 in range order
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
    # chunks across 2^63, in uint64 as far as _U64_GUARD; each links to nothing above it
    lo, hi = 2**63 - 40, 2**63 + 40
    rep = verify_range(lo, hi, 1500, chunk_size=16)
    assert json.loads(rep.to_json()) == _reference_doc(lo, hi, 1500)


def _u64_window(at):
    from conjlab.collatz import _U64_GUARD

    return {"2^63": 2**63 - 150, "guard": _U64_GUARD - 299, "2^63+2^20": 2**63 + 2**20}[at]


@pytest.mark.parametrize(
    "at,budget,floor",
    [
        ("2^63", 10**5, None),
        ("guard", 10**5, None),
        ("2^63+2^20", 60, None),
        ("2^63+2^20", 150, None),
        ("2^63", 10**5, 2**62),
        ("2^63", 150, 2**63),
        ("guard", 150, 2**64),
        ("guard", 60, 2**63),
    ],
)
def test_starts_up_to_the_guard_take_the_uint64_path(at, budget, floor):
    # starts in [2^63, _U64_GUARD] run in uint64 like those below 2^63;
    # the floors and link bounds are clamped just above the guard
    lo = _u64_window(at)
    ref = _reference_doc(lo, lo + 299, budget, floor)
    for chunk_size in (97, 4096):
        rep = verify_range(lo, lo + 299, budget, floor, chunk_size=chunk_size)
        assert json.loads(rep.to_json()) == ref


def test_floor_above_uint64_makes_every_start_a_root():
    rep = verify_range(1, 10, 100, floor=2**70)
    assert json.loads(rep.to_json()) == _reference_doc(1, 10, 100, 2**70)


@pytest.mark.parametrize("lo", ["guard", "frontier", "top"])
@pytest.mark.parametrize("budget", [1, 3, 7, 120, 1000, 3000])
@pytest.mark.parametrize("floor_at", [None, "lo"])
def test_descent_sweep_hands_promoted_iterates_back(lo, budget, floor_at):
    # blocks wider than the Python tail follow an iterate above the uint64
    # guard in Python ints only until it fits again; "top" ends 1,700
    # below 2^63
    lo = {"guard": _first_crossing() - 150, "frontier": 2**62 + 401 * 2**16, "top": 2**63 - 2000}[lo]
    hi = lo + 299
    floor = lo if floor_at else None
    ref = _reference_doc(lo, hi, budget, floor)
    for chunk_size in (97, 4096):
        rep = verify_range(lo, hi, budget, floor, chunk_size=chunk_size)
        assert json.loads(rep.to_json()) == ref


@pytest.fixture
def py_steps(monkeypatch):
    """The steps taken in each call of collatz._follow_py, through a spy."""
    from conjlab import collatz

    follow = collatz._follow_py
    used = []

    def spy(v, budget, exit_floor):
        out = follow(v, budget, exit_floor)
        used.append(out[1])
        return out

    monkeypatch.setattr(collatz, "_follow_py", spy)
    return used


def test_promoted_iterates_leave_python_ints_once_they_fit(py_steps):
    # an iterate above 2^63.4 rejoins the uint64 block within a few steps,
    # so Python ints take few of the steps of starts just above 2^62
    lo = 2**62 + 401 * 2**16
    rep = verify_range(lo, lo + 2047, 10**5)
    assert rep.verified_count == 2048
    assert sum(py_steps) < 4 * 2048


def test_starts_above_2_63_take_few_python_int_steps(py_steps):
    # starts up to _U64_GUARD run in uint64: about 5.7 Python-int steps per
    # start at 2^63 + 2^20, where the all-Python path took about 340
    lo = 2**63 + 2**20
    rep = verify_range(lo, lo + 2047, 10**5)
    assert rep.verified_count == 2048
    assert sum(py_steps) < 8 * 2048


def test_residue_table_is_the_first_descent():
    from conjlab.collatz import _residue_table

    first, coef, t_r = _residue_table()
    assert (first.dtype, coef.dtype, t_r.dtype) == (np.uint8, np.uint64, np.uint64)
    # every residue against its first descent, one step at a time
    want = []
    for r in range(2**16):
        v, mult, j = r, 1, 16
        for i in range(1, 17):
            mult *= 3 if v & 1 else 1
            v = step(v) if v else 0
            if mult < 2**i:
                j = i
                break
        want.append((j, mult << (16 - j), v))
    assert list(zip(first.tolist(), coef.tolist(), t_r.tolist())) == want
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


def test_verify_range_holds_one_array_over_the_range():
    # the int16 totals window is the only array that grows with the range;
    # each chunk's steps and links live only until phase 2 has resolved it
    import tracemalloc

    from conjlab.collatz import _residue_table

    _residue_table()
    n = 1 << 22
    tracemalloc.start()
    try:
        verify_range(1, n, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


@pytest.mark.parametrize("budget", [2**15 - 2, 2**15 - 1, 2**15, 2**15 + 1, 2**31 - 1, 2**61])
def test_narrow_totals_at_wide_budgets(budget):
    # caps at and above the int16 range: every total still exact
    for lo, hi in ((1, 3000), (2**40, 2**40 + 500)):
        rep = verify_range(lo, hi, budget, chunk_size=256)
        assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget)


@pytest.mark.parametrize("wide", [5, 38, 59, 60, 61, 62])
@pytest.mark.parametrize("budget", [38, 59, 60, 61, 2**61])
def test_wide_totals_kept_exactly(monkeypatch, wide, budget):
    # with the int16 limit lowered, many totals and budget-out caps go to
    # the side dict, and links read them back from it
    from conjlab import collatz

    monkeypatch.setattr(collatz, "_WIDE", wide)
    ref = _reference_doc(1, 3000, budget)
    for chunk_size in (97, 4096):
        for workers in (1, 2):
            rep = verify_range(1, 3000, budget, chunk_size=chunk_size, workers=workers)
            assert json.loads(rep.to_json()) == ref


def test_link_into_a_budget_out():
    # 54 halves onto 27, which takes 70 steps: at budget 60 both are candidates
    rep = verify_range(27, 54, 60, chunk_size=8)
    cands = {c.n: c for c in rep.counterexample_candidates}
    assert 27 in cands and 54 in cands
    assert json.loads(rep.to_json()) == _reference_doc(27, 54, 60)
    doc = json.loads(verify_range(1, 3000, 60, chunk_size=97).to_json())
    assert len(doc["counterexample_candidates"]) == 1023
    assert doc == _reference_doc(1, 3000, 60)


@pytest.mark.parametrize("budget", [60, 1000])
def test_window_slides_over_many_chunks(budget):
    # chunks of 97 from 1: the totals window moves its live part many times
    lo, hi = 1, 20000
    for floor in (None, 5000, 19000):
        ref = _reference_doc(lo, hi, budget, floor)
        rep = verify_range(lo, hi, budget, floor, chunk_size=97)
        assert json.loads(rep.to_json()) == ref


@pytest.mark.parametrize("budget", [60, 10**5])
def test_one_chunk_holds_every_link_chain(budget):
    # from 1, every link of 1..20000 lands in the one chunk: phase 2
    # resolves chains up to 24 links long inside it
    rep = verify_range(1, 20000, budget, chunk_size=2**16)
    assert rep.chunk_count == 1
    assert json.loads(rep.to_json()) == _reference_doc(1, 20000, budget)


def test_straggler_jumps_stop_at_the_jump_limit():
    # the block lies under _JUMP_LIMIT but its orbits, bound for the root,
    # climb past it, where a table jump would wrap uint64
    from conjlab.collatz import _JUMP_LIMIT

    lo, hi = _JUMP_LIMIT - 4096, _JUMP_LIMIT - 1
    assert json.loads(verify_range(lo, hi, 10**5).to_json()) == _reference_doc(lo, hi, 10**5)


@pytest.mark.parametrize("budget", [40, 1000])
def test_floor_above_lo_with_window(budget):
    lo, hi = 3000, 9000
    for floor in (3001, 4500, 9001):
        rep = verify_range(lo, hi, budget, floor, chunk_size=256)
        assert json.loads(rep.to_json()) == _reference_doc(lo, hi, budget, floor)


def test_high_narrow_range_window_is_the_whole_range():
    # lo >> hi - lo: max(lo, a // 2) is lo for every chunk
    from conjlab.collatz import _Totals

    lo = 10**12
    hi = lo + 3000
    chunks = [(a, min(a + 255, hi)) for a in range(lo, hi + 1, 256)]
    assert _Totals(lo, chunks).buf.size == hi - lo + 1
    rep = verify_range(lo, hi, 300, chunk_size=256)
    assert json.loads(rep.to_json()) == _reference_doc(lo, hi, 300)


@pytest.mark.parametrize("budget", [60, 2**15, 10**5])
def test_narrow_totals_independent_of_workers(budget):
    a = verify_range(1, 60000, budget, chunk_size=2048, workers=1).to_json()
    assert verify_range(1, 60000, budget, chunk_size=2048, workers=2).to_json() == a


def test_sweep_working_set_is_about_one_byte_per_start():
    # deterministic: tracemalloc sees numpy's buffers.  Fixed working set:
    # a chunk's steps, links and offsets and phase 2's temporaries, under
    # 56 B per chunk start; then the int16 window over [a/2, a + chunk)
    import tracemalloc

    from conjlab.collatz import DEFAULT_CHUNK_SIZE, _residue_table

    _residue_table()
    n = 1 << 20
    tracemalloc.start()
    try:
        verify_range(1, n, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * DEFAULT_CHUNK_SIZE + 1.25 * n


def test_first_descent_working_set_does_not_grow_with_the_chunk():
    # beyond the 16 B per start of steps and links it returns, phase 1
    # holds one 2^14-start sub-block of the first descent and the few
    # survivors of the others
    import tracemalloc

    from conjlab.collatz import _descend, _residue_table

    _residue_table()
    work = {}
    for chunk_size in (2**14, 2**16):
        offs = np.arange(chunk_size)
        tracemalloc.start()
        try:
            _descend(1 + 40 * 2**16, offs, 1, 10**5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work[chunk_size] = peak - 16 * chunk_size
    assert work[2**16] < 1.2 * work[2**14]


def test_verify_range_rejects_workers_below_one_first():
    with pytest.raises(ValueError, match="workers must be at least 1"):
        verify_range(1, 10**9, 10, workers=0)


def test_iterate_zero_steps_is_identity_on_any_int():
    # k = 0 applies no step, so the domain check does not fire
    assert iterate(0, 0) == 0
    assert iterate(-1, 0) == -1
    with pytest.raises(ValueError, match="positive integer"):
        iterate(0, 1)
    with pytest.raises(ValueError, match="positive integer"):
        iterate(-1, 3)


def test_array_step_matches_step():
    from conjlab.collatz import _U64_GUARD, _t_vec

    cases = [
        (np.uint64, [_U64_GUARD, _U64_GUARD - 1, 1, 2]),
        (np.int64, [(2**63 - 2) // 3, (2**63 - 2) // 3 - 1, 1, 2]),
    ]
    for dtype, values in cases:
        odd, nxt = _t_vec(np.array(values, dtype=dtype))
        assert odd.dtype == dtype and nxt.dtype == dtype
        assert odd.tolist() == [v & 1 for v in values]
        assert nxt.tolist() == [step(v) for v in values]
    # the guard is the largest odd value whose step fits a uint64
    assert step(_U64_GUARD) == 2**64 - 2 and step(_U64_GUARD + 2) == 2**64 + 1
