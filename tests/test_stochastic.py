import math
import threading

import pytest

from conjlab.mobius import random_walk_compare
from conjlab.parity import random_fraction
from conjlab.rng import _pmap, substream
from conjlab.stochastic import (
    WalkConfig,
    WalkSummary,
    empirical_parity_frequency,
    expected_step_drift,
    heuristic_walk,
)


def test_expected_step_drift_fair():
    assert expected_step_drift() == pytest.approx(0.5 * math.log(0.75), rel=1e-15)
    assert expected_step_drift() < 0


def test_expected_step_drift_degenerate():
    assert expected_step_drift(0.0) == math.log(0.5)
    assert expected_step_drift(1.0) == math.log(1.5)
    with pytest.raises(ValueError):
        expected_step_drift(-0.01)
    with pytest.raises(ValueError):
        expected_step_drift(1.01)


def test_walk_validation():
    with pytest.raises(ValueError):
        heuristic_walk(WalkConfig(trials=0, steps=10, seed=1))
    with pytest.raises(ValueError):
        heuristic_walk(WalkConfig(trials=5, steps=-1, seed=1))
    with pytest.raises(ValueError):
        heuristic_walk(WalkConfig(trials=5, steps=10, seed=1, p_odd=2.0))


def test_walk_zero_steps():
    s = heuristic_walk(WalkConfig(trials=7, steps=0, seed=3))
    assert s == WalkSummary(7, 0, 0.0, 0.0, 0.0)


def test_walk_all_even_steps():
    # p_odd = 0 collapses every trial onto deterministic halving
    s = heuristic_walk(WalkConfig(trials=20, steps=100, seed=4, p_odd=0.0))
    assert s.mean_step_drift == pytest.approx(expected_step_drift(0.0), rel=1e-14)
    assert s.std_error == pytest.approx(0.0, abs=1e-15)
    assert s.fraction_descended == 1.0


def test_walk_all_odd_steps():
    s = heuristic_walk(WalkConfig(trials=20, steps=100, seed=4, p_odd=1.0))
    assert s.mean_step_drift == pytest.approx(expected_step_drift(1.0), rel=1e-14)
    assert s.std_error == pytest.approx(0.0, abs=1e-15)
    assert s.fraction_descended == 0.0


def test_walk_single_trial_reconstructs():
    cfg = WalkConfig(trials=1, steps=1000, seed=11)
    s = heuristic_walk(cfg)
    ups = int(substream(11, 0).binomial(1000, 0.5))
    disp = ups * math.log(1.5) + (1000 - ups) * math.log(0.5)
    assert s.mean_step_drift == disp / 1000
    assert s.std_error == 0.0


def test_walk_reproducible_across_workers():
    cfg = WalkConfig(trials=64, steps=5000, seed=42)
    a = heuristic_walk(cfg)
    b = heuristic_walk(cfg, workers=4)
    c = heuristic_walk(cfg, workers=8)
    assert a == b == c


def test_walk_drift_near_model():
    cfg = WalkConfig(trials=400, steps=10_000, seed=7)
    s = heuristic_walk(cfg)
    assert s.std_error > 0
    assert abs(s.mean_step_drift - expected_step_drift()) <= 3 * s.std_error
    assert s.fraction_descended > 0.99


def test_walk_csv_line():
    s = heuristic_walk(WalkConfig(trials=5, steps=100, seed=9))
    parts = s.csv_line().split(",")
    assert len(parts) == 5
    assert parts[0] == "5" and parts[1] == "100"
    assert float(parts[2]) == s.mean_step_drift


@pytest.mark.parametrize(
    "lo,count,k,freq",
    [
        (1, 1, 2, 0.5),
        (1, 1, 64, 0.5),
        (2, 1, 1, 0.0),
        (4, 1, 50, 0.0),
        (1, 3, 3, 0.5),
    ],
)
def test_empirical_parity_frequency_examples(lo, count, k, freq):
    assert empirical_parity_frequency(lo, count, k) == freq


def test_empirical_parity_frequency_truncates_at_one():
    # 4 -> 2 -> 1: two parities regardless of how large k is
    assert empirical_parity_frequency(4, 1, 3) == empirical_parity_frequency(4, 1, 300)


def test_empirical_parity_frequency_wide_values():
    f = empirical_parity_frequency(2**70 + 1, 2, 16)
    assert 0.0 <= f <= 1.0


def test_empirical_parity_frequency_near_half_in_bulk():
    f = empirical_parity_frequency(2**40, 2000, 64)
    assert 0.45 <= f <= 0.55


def test_empirical_parity_frequency_validation():
    with pytest.raises(ValueError):
        empirical_parity_frequency(0, 10, 4)
    with pytest.raises(ValueError):
        empirical_parity_frequency(1, 0, 4)
    with pytest.raises(ValueError):
        empirical_parity_frequency(1, 10, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: random_fraction(16, 4, seed=0, workers=w),
        lambda w: heuristic_walk(WalkConfig(trials=4, steps=10, seed=0), workers=w),
        lambda w: random_walk_compare(100, 4, seed=0, workers=w),
    ],
    ids=["random_fraction", "heuristic_walk", "random_walk_compare"],
)
@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(call, workers):
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        call(workers)


def test_pmap_keeps_task_order_and_runs_small_maps_inline():
    tasks = list(range(50))
    assert _pmap(lambda t: t * t, tasks, 4) == [t * t for t in tasks]
    here = threading.get_ident()
    assert _pmap(lambda t: threading.get_ident(), tasks, 1) == [here] * 50
    assert _pmap(lambda t: threading.get_ident(), [0], 4) == [here]
    assert _pmap(lambda t: t, [], 4) == []


def test_heuristic_walk_without_steps_still_checks_workers():
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        heuristic_walk(WalkConfig(3, 0, 0), workers=0)


def test_random_walk_compare_checks_workers_before_sieving(monkeypatch):
    import conjlab.mobius

    calls = []
    monkeypatch.setattr(conjlab.mobius, "mertens", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        random_walk_compare(10**7, 1, 0, workers=0)
    assert calls == []
