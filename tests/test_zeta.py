import ast
import math
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import conjlab.zeta as zeta
from conjlab.zeta import (
    AnalyticCountWarning,
    RHReport,
    T_MIN,
    ZeroBracket,
    refine_zero,
    sign_changes,
    theta,
    theta_value,
    verify_rh,
    z_function,
    z_values,
    zero_count_analytic,
    zeros_in,
)

from em_zeta import EM_ERROR_BOUND, zeta_half
from phi_decimal import phi_derivatives
from theta_decimal import coefficient, theta_series
from z_reference import z_values_reference


def test_theta_strictly_increasing():
    ts = np.linspace(10.0, 500.0, 400)
    vals = np.array([theta(float(t)) for t in ts])
    assert (np.diff(vals) > 0).all()


def test_theta_gram_anchor():
    # theta vanishes at the classical anchor near 17.8456
    assert abs(theta(17.8455995)) < 1e-6


def test_theta_domain():
    with pytest.raises(ValueError):
        theta(5.0)
    with pytest.raises(ValueError):
        theta(9.999)
    theta(T_MIN)  # boundary admitted


def test_theta_value_error_bound():
    tv = theta_value(30.0)
    assert tv.t == 30.0
    assert tv.theta == theta(30.0)
    assert 0 < tv.error_bound < 1e-10
    assert theta_value(100.0).error_bound < tv.error_bound


def test_theta_series_coefficients_from_bernoulli_numbers():
    assert [coefficient(k) for k in range(1, 5)] == [
        Fraction(1, 48), Fraction(7, 5760), Fraction(31, 80640), Fraction(127, 430080)
    ]


_THETA_GRID = np.geomspace(T_MIN, 1e15, 1500).tolist()


def _theta_error(t):
    return float(abs(theta_series(t) - Decimal(theta(t))))


def test_theta_value_bound_holds_against_the_decimal_judge():
    missed = [t for t in _THETA_GRID if not _theta_error(t) <= theta_value(t).error_bound]
    assert missed == []


def test_truncation_bound_alone_misses_the_rounding():
    # the bound theta_value reported before it counted the rounding
    missed = [t for t in _THETA_GRID if _theta_error(t) > 62.0 / (80640.0 * t**5)]
    assert len(missed) > len(_THETA_GRID) // 2


def test_z_domain():
    with pytest.raises(ValueError):
        z_function(9.0)
    with pytest.raises(ValueError):
        z_values([15.0, 9.5])


def test_z_term_count():
    for t in (10.0, 15.0, 63.0, 100.0, 251.33, 999.0):
        assert z_function(t).terms == math.floor(math.sqrt(t / (2 * math.pi)))


def test_z_sign_brackets_first_two_zeros():
    assert z_function(14.0).z * z_function(14.2).z < 0
    assert z_function(20.9).z * z_function(21.1).z < 0


def test_z_vectorized_matches_scalar():
    ts = [12.0, 17.5, 48.0, 90.0]
    vec = z_values(ts)
    for t, v in zip(ts, vec):
        assert z_function(t).z == float(v)


@pytest.mark.parametrize("t", [15.0, 25.0, 50.0, 100.0])
def test_z_magnitude_against_euler_maclaurin(t):
    ze = z_function(t)
    assert abs(abs(ze.z) - abs(zeta_half(t))) <= ze.error_bound + EM_ERROR_BOUND


def test_z_magnitude_random_heights():
    rng = np.random.default_rng(55)
    for t in 15.0 + 185.0 * rng.random(50):
        ze = z_function(float(t))
        assert abs(abs(ze.z) - abs(zeta_half(float(t)))) <= ze.error_bound + EM_ERROR_BOUND


def test_sign_changes_examples():
    assert len(sign_changes(10.0, 30.0, 0.05)) == 3
    assert sign_changes(10.0, 13.0, 0.05) == []
    with pytest.raises(ValueError):
        sign_changes(30.0, 10.0, 0.05)
    with pytest.raises(ValueError):
        sign_changes(10.0, 30.0, 0.0)
    with pytest.raises(ValueError):
        sign_changes(5.0, 30.0, 0.05)


def test_sign_changes_bracket_property():
    for b in sign_changes(10.0, 60.0, 0.05):
        assert b.t_lo < b.t_hi
        assert float(z_values([b.t_lo])[0]) * float(z_values([b.t_hi])[0]) < 0


def test_refine_zero_anchors():
    z1 = refine_zero(ZeroBracket(14.0, 14.2), tol=1e-6)
    z2 = refine_zero(ZeroBracket(20.9, 21.1), tol=1e-6)
    assert abs(z1 - 14.134725) < 1e-3
    assert abs(z2 - 21.022040) < 1e-3


def test_refine_zero_stability():
    b = ZeroBracket(14.0, 14.2)
    coarse = refine_zero(b, tol=1e-6)
    fine = refine_zero(b, tol=1e-7)
    assert abs(coarse - fine) < 1e-6


def test_refine_zero_same_sign_rejected():
    with pytest.raises(ValueError):
        refine_zero(ZeroBracket(15.0, 16.0))
    with pytest.raises(ValueError):
        refine_zero(ZeroBracket(14.0, 14.2), tol=0.0)


def _refine_zero_scalar(bracket, tol):
    """One-bracket, one-point-per-call bisection: the oracle for ``_bisect``."""
    lo, hi = bracket.t_lo, bracket.t_hi
    f_lo = float(z_values(np.array([lo]))[0])
    f_hi = float(z_values(np.array([hi]))[0])
    assert f_lo * f_hi < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = float(z_values(np.array([mid]))[0])
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@pytest.fixture
def z_calls(monkeypatch):
    """Route conjlab.zeta's Z evaluations through a shim that records each call."""
    calls = []

    def counting(ts):
        calls.append(np.size(ts))
        return z_values(ts)

    monkeypatch.setattr(zeta, "z_values", counting)
    return calls


@pytest.fixture
def z_points(monkeypatch):
    """Route conjlab.zeta's Z evaluations through a shim that records each
    call's abscissae, flattened."""
    seen = []

    def recording(ts):
        seen.append(np.array(ts, dtype=np.float64).ravel())
        return z_values(ts)

    monkeypatch.setattr(zeta, "z_values", recording)
    return seen


@pytest.mark.parametrize(
    "args", [(10.0, 200.0, 0.05, 1e-12), (10.0, 60.0, 0.05, 1e-9)]
)
def test_zeros_in_matches_scalar_bisection(args):
    expected = [_refine_zero_scalar(b, args[3]) for b in sign_changes(*args[:3])]
    assert zeros_in(*args) == expected


@pytest.mark.parametrize(
    "bracket", [ZeroBracket(14.0, 14.2), ZeroBracket(20.9, 21.1), ZeroBracket(14, 15)]
)
def test_refine_zero_matches_scalar_bisection(bracket):
    assert refine_zero(bracket, tol=1e-6) == _refine_zero_scalar(bracket, 1e-6)


@pytest.mark.parametrize(
    "call,count",
    [("[refine_zero(ZeroBracket(14.1, 14.2), tol=1e-16)]", 1), ("zeros_in(29000.0, 29001.0, tol=1e-12)", 2)],
)
def test_bisection_below_the_float_spacing_stops_at_adjacent_floats(call, count):
    # in a child, so that a bisection that never ends fails here instead of hanging
    code = f"from conjlab.zeta import *; print({call})"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    zs = ast.literal_eval(r.stdout)
    assert len(zs) == count
    for t in zs:
        # Z changes sign between t and one of its neighbours: the last bracket's ends
        z = z_values(np.array([np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]))
        assert z[0] * z[1] <= 0.0 or z[1] * z[2] <= 0.0, t


def test_zeros_in_one_z_call_per_halving_step(z_calls):
    zs = zeros_in(10.0, 60.0, 0.05, 1e-9)
    assert len(zs) == 13
    # one scan, then one call per halving step; the bracket ends come from the scan
    assert len(z_calls) <= 1 + math.ceil(math.log2(0.05 / 1e-9))


def test_zeros_in_evaluates_each_abscissa_once(z_points):
    assert len(zeros_in(10.0, 60.0, 0.05, 1e-9)) == 13
    points = np.concatenate(z_points)
    assert (len(z_points), points.size) == (27, 1339)
    assert np.unique(points).size == points.size


def test_zeros_in_without_sign_change_does_not_bisect(z_calls):
    assert zeros_in(10.0, 14.0) == []
    assert len(z_calls) == 1  # the scan only


def test_refine_zero_checks_tol_before_evaluating(z_calls):
    with pytest.raises(ValueError, match="tol"):
        refine_zero(ZeroBracket(14.0, 14.2), tol=0.0)
    assert z_calls == []


def test_same_sign_bracket_raises_without_bisecting(z_calls):
    with pytest.raises(ValueError, match="opposite"):
        refine_zero(ZeroBracket(15.0, 16.0))
    assert z_calls == [2]  # the bracket ends only


@pytest.mark.parametrize("bracket", [ZeroBracket(14.2, 14.0), ZeroBracket(14.1, 14.1)])
def test_refine_zero_rejects_unordered_bracket_before_evaluating(bracket, z_calls):
    with pytest.raises(ValueError, match="tol"):
        refine_zero(bracket, tol=0.0)
    with pytest.raises(ValueError, match="t_lo < t_hi"):
        refine_zero(bracket, tol=1e-9)
    assert z_calls == []


def test_exact_zero_midpoint_is_returned_while_others_bisect(monkeypatch):
    hit, *others = sign_changes(10.0, 30.0, 0.05)
    mid = 0.5 * (hit.t_lo + hit.t_hi)
    widths = []

    def zero_at_mid(ts):
        widths.append(np.size(ts))
        return np.where(ts == mid, 0.0, z_values(ts))

    monkeypatch.setattr(zeta, "z_values", zero_at_mid)
    expected = [mid] + [_refine_zero_scalar(b, 1e-6) for b in others]
    assert zeros_in(10.0, 30.0, tol=1e-6) == expected
    # the scan, then all three brackets; the one at the exact zero drops out
    assert widths[:3] == [401, 3, 2]


def test_zeros_in_first_three():
    zs = zeros_in(10.0, 30.0, 0.05, tol=1e-9)
    assert len(zs) == 3
    assert zs == sorted(zs)
    assert abs(zs[0] - 14.134725) < 1e-3
    assert abs(zs[1] - 21.022040) < 1e-3
    assert abs(zs[2] - 25.010858) < 1e-3


def test_zero_count_analytic_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zero_count_analytic(100.0) == 29
        assert zero_count_analytic(60.0) == 13
    with pytest.warns(AnalyticCountWarning):
        # theta(30)/pi + 1 = 3.56: rounds to 4 and sits in the warning band
        assert zero_count_analytic(30.0) == 4
    with pytest.warns(AnalyticCountWarning):
        assert zero_count_analytic(12.0) == 0


def test_zero_count_domain():
    with pytest.raises(ValueError):
        zero_count_analytic(9.0)


def test_zero_count_agrees_with_scan_when_confident():
    for T in (60.0, 100.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = zero_count_analytic(T)
        assert len(sign_changes(10.0, T, 0.05)) == count


def test_zero_count_excursion_at_50():
    # S(50) pushes the true count one above the rounded main term; the
    # warning fires and a fine scan exposes the extra zero
    with pytest.warns(AnalyticCountWarning):
        assert zero_count_analytic(50.0) == 9
    assert len(sign_changes(10.0, 50.0, 0.05)) == 10
    with pytest.warns(AnalyticCountWarning):
        rep = verify_rh(50.0, 0.05)
    assert (rep.sign_change_count, rep.analytic_count, rep.verified) == (10, 9, False)


def test_lower_bound_property():
    # a coarse grid may undercount but never overcounts
    for step in (2.0, 0.5, 0.1, 0.05):
        found = len(sign_changes(10.0, 100.0, step))
        assert found <= 29


def test_grid_refinement_monotone():
    step = 1.6
    counts = []
    for _ in range(6):
        counts.append(len(sign_changes(10.0, 100.0, step)))
        step *= 0.5
    assert counts == sorted(counts)


def test_verify_rh_at_100():
    rep = verify_rh(100.0, 0.05)
    assert rep == RHReport(
        T=100.0, sign_change_count=29, analytic_count=29, verified=True, z_evaluations=31
    )


def test_verify_rh_refines_only_the_rosser_blocks_of_bad_gram_points(z_points):
    # below 300, Gram's law fails at g_126 and g_134 only; the scan cuts the
    # two intervals of each of their blocks into 4 and finds both zeros
    g = zeta._gram_points(300.0)
    zg = z_values(g)
    bad = np.flatnonzero(np.where(np.arange(g.size) % 2 == 0, zg, -zg) <= 0.0)
    assert bad.tolist() == [126, 134]
    assert abs(g[134] - 295.584) < 1e-3
    z_points.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalyticCountWarning)
        rep = verify_rh(300.0)
    assert (rep.sign_change_count, rep.analytic_count, rep.verified) == (138, 138, True)
    first, refined = z_points
    assert np.array_equal(first, np.concatenate(([T_MIN], g, [300.0])))
    assert refined.size == 12 and rep.z_evaluations == 139 + 12
    for n in (126, 134):
        inside = refined[(g[n - 1] < refined) & (refined < g[n + 1])]
        assert inside.size == 6 and not np.isin(inside, g).any()


def test_verify_rh_near_count_boundary():
    # the analytic count rounds up to 4 here while only 3 zeros exist, so
    # an honest scan reports a deficit rather than a verification
    with pytest.warns(AnalyticCountWarning):
        rep = verify_rh(30.0, 0.05)
    assert (rep.sign_change_count, rep.analytic_count) == (3, 4)
    assert rep.verified is False
    assert rep.sign_change_count <= rep.analytic_count


def test_verify_rh_domain():
    with pytest.raises(ValueError):
        verify_rh(0.0)
    with pytest.raises(ValueError):
        verify_rh(13.9)
    with pytest.raises(ValueError, match="^grid_step must be positive and finite$"):
        verify_rh(100.0, grid_step=-0.1)
    with pytest.raises(ValueError, match="^max_refinements must be non-negative$"):
        verify_rh(100.0, max_refinements=-1)


def test_verify_rh_ignores_grid_step_and_max_refinements():
    rep = verify_rh(100.0)
    assert verify_rh(100.0, 1.6, 0) == verify_rh(100.0, 1e-300, 10**6) == rep


def _theta_scalar_reference(t):
    return (
        0.5 * t * math.log(t / (2.0 * math.pi))
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
    )


def _theta_array_reference(ts):
    return (
        0.5 * ts * np.log(ts / (2.0 * math.pi))
        - 0.5 * ts
        - math.pi / 8.0
        + 1.0 / (48.0 * ts)
        + 7.0 / (5760.0 * ts**3)
    )


def test_theta_formula_is_bit_identical_to_both_original_forms():
    rng = np.random.default_rng(5)
    ts = np.concatenate([np.linspace(T_MIN, 1e3, 5000), 10.0 ** rng.uniform(1.0, 6.0, 5000)])
    assert (zeta._theta(ts, np.log) == _theta_array_reference(ts)).all()
    assert [theta(t) for t in ts.tolist()] == [_theta_scalar_reference(t) for t in ts.tolist()]


def test_z_values_domain_check_messages():
    for bad in ([float("nan")], [20.0, float("nan")], [9.99, 20.0]):
        with pytest.raises(ValueError, match=r"t must be >= 10\.0"):
            z_values(bad)
    assert z_values([]).size == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta(math.inf),
        lambda: theta_value(math.inf),
        lambda: z_function(math.inf),
        lambda: z_values([20.0, math.inf]),
        lambda: sign_changes(20.0, math.inf, 0.05),
        lambda: zeros_in(20.0, math.inf),
        lambda: zero_count_analytic(math.inf),
        lambda: verify_rh(math.inf),
    ],
    ids=["theta", "theta_value", "z_function", "z_values", "sign_changes",
         "zeros_in", "zero_count_analytic", "verify_rh"],
)
def test_infinite_t_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: z_function(30000.5),
        lambda: z_values([20.0, 1e300]),
        lambda: sign_changes(20.0, 4e4, 1.0),
        lambda: zeros_in(20.0, 4e4),
        lambda: refine_zero(ZeroBracket(3e4, 3.1e4)),
        lambda: verify_rh(4e4),
    ],
    ids=["z_function", "z_values", "sign_changes", "zeros_in", "refine_zero", "verify_rh"],
)
def test_z_above_its_calibrated_range_rejected(call):
    with pytest.raises(ValueError, match=r"t must be <= 30000;"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta(1e100),
        lambda: theta(math.nextafter(1e15, math.inf)),
        lambda: theta_value(1e100),
        lambda: zero_count_analytic(1e200),
    ],
    ids=["theta", "theta_next_float", "theta_value", "zero_count_analytic"],
)
def test_theta_above_its_float64_range_rejected(call):
    with pytest.raises(ValueError, match=r"^t must be <= 1e\+15; "):
        call()


def test_theta_at_its_cap_still_evaluates():
    tv = theta_value(1e15)
    assert tv.theta / math.pi >= 2**52 and tv.error_bound > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalyticCountWarning)
        assert zero_count_analytic(1e15) == math.floor(tv.theta / math.pi + 1.5)


def test_z_at_the_cap_and_theta_above_it_still_evaluate():
    ze = z_function(3e4)
    assert ze.terms == 69 and math.isfinite(ze.z)
    assert theta_value(1e6).error_bound > 0


# --- the Z kernel against its frozen reference, and the Gram-point scan ---


def _m_steps():
    # t = 2 pi n^2 is where m = floor(sqrt(t / 2 pi)) steps from n - 1 to n
    ts = [T_MIN, 3e4]
    for n in range(2, 70):
        t = 2.0 * math.pi * n * n
        ts += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf), t - 1e-6, t + 1e-6]
    return np.array(ts)


def _uniform(sort):
    ts = np.random.default_rng(12).uniform(T_MIN, 3e4, 50_001)
    return np.sort(ts) if sort else ts


@pytest.mark.parametrize(
    "ts",
    [
        lambda: T_MIN + 0.2 * np.arange(39_951),  # the scan grids up to 8000
        lambda: T_MIN + 0.1 * np.arange(79_901),
        lambda: _uniform(sort=False),
        lambda: _uniform(sort=True),
        lambda: _uniform(sort=True)[::-1],
        lambda: np.repeat(np.linspace(20.0, 2e4, 300), 3)[::-1].copy(),
        lambda: np.array([3e4]),
        lambda: _m_steps(),
        lambda: np.random.default_rng(3).permutation(_m_steps()),
        lambda: np.linspace(T_MIN, 3e4, 1),
        lambda: np.linspace(T_MIN, 3e4, zeta._Z_BLOCK - 1),
        lambda: np.linspace(T_MIN, 3e4, zeta._Z_BLOCK),
        lambda: np.linspace(T_MIN, 3e4, zeta._Z_BLOCK + 1),
        lambda: np.linspace(6e3, 3e4, zeta._Z_BLOCK + 1)[::-1],
    ],
    ids=["grid_0.2", "grid_0.1", "uniform_shuffled", "uniform_sorted", "descending",
         "duplicates", "top", "m_steps", "m_steps_shuffled", "len_1", "len_block-1",
         "len_block", "len_block+1", "len_block+1_descending"],
)
def test_z_values_equal_to_reference(ts):
    ts = ts()
    got = z_values(ts)
    assert got.shape == ts.shape
    assert np.array_equal(got, z_values_reference(ts))


@pytest.mark.parametrize(
    "ts",
    [np.empty(0), np.empty((0, 3)), np.float64(123.4), 20.0, [[15.0, 3e4], [14.0, 99.0]],
     np.linspace(T_MIN, 3e4, 600).reshape(20, 30), np.linspace(T_MIN, 3e4, 600).reshape(30, 20).T],
    ids=["empty", "empty_2d", "0d", "scalar", "list_2d", "2d", "2d_transposed"],
)
def test_z_values_shape_and_value_as_reference(ts):
    got, want = z_values(ts), z_values_reference(ts)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_z_values_leaves_its_input_alone():
    ts = _uniform(sort=False)[:1000]
    before = ts.copy()
    z_values(ts)
    assert np.array_equal(ts, before)


def test_phi_stack_matches_separate_chebval():
    u = np.linspace(-1.0, 1.0, 2001)
    rows = np.polynomial.chebyshev.chebval(u, zeta._PHI_STACK)
    for row, k in zip(rows, zeta._PHI_ORDERS):
        series = zeta._PHI_CHEB.deriv(k) if k else zeta._PHI_CHEB
        assert np.array_equal(row, series(u))


# The worst error of each column against the judge, as measured at
# _PHI_DEGREE = 26 on the points below, times a margin of 4.  Degree 100
# was off by 1.9e-14, 3.3e-10, 5.1e-8 and 0.157.
_PHI_TOL = {0: 4 * 1.44e-15, 2: 4 * 1.49e-12, 3: 4 * 5.72e-11, 6: 4 * 4.64e-6}


def test_phi_columns_against_the_decimal_judge():
    z = np.linspace(-1.0, 1.0, 401)
    z = z[np.abs(np.cos(np.pi * z)) >= 0.1]  # where the judge keeps 40 digits
    assert z.size >= 200
    cols = np.polynomial.chebyshev.chebval(z / zeta._PHI_SCALE, zeta._PHI_STACK)
    cols /= zeta._PHI_POWERS
    judged = [phi_derivatives(v) for v in z.tolist()]
    worst = {
        k: float(np.abs(col - [float(d[k]) for d in judged]).max())
        for col, k in zip(cols, zeta._PHI_ORDERS)
    }
    assert all(e <= _PHI_TOL[k] for k, e in worst.items()), worst


def _verify_rh_from_scratch(T, grid_step, max_refinements):
    # the uniform grid that verify_rh once scanned, halved until the
    # counts agree: (sign_change_count, analytic_count, verified)
    count = zero_count_analytic(T)
    step = grid_step
    for attempt in range(max_refinements + 1):
        found = len(sign_changes(T_MIN, T, step))
        if found >= count:
            break
        if attempt < max_refinements:
            step *= 0.5
    return found, count, found == count


@pytest.mark.parametrize(
    "args",
    [(30.0, 0.05, r) for r in range(4)]
    + [(100.0, 1.6, 8), (1000.0, 0.3, 3), (8000.0, 0.2, 3), (257.3, 1.3, 4)]
    + [(T, 0.05, 3) for T in (14.0, 20.0, 30.0, 50.0, 100.0, 257.3, 282.0, 300.0, 1000.0, 8000.0)],
)
def test_verify_rh_equal_to_scanning_every_grid(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalyticCountWarning)
        rep = verify_rh(*args)
        judge = _verify_rh_from_scratch(*args)
    assert (rep.sign_change_count, rep.analytic_count, rep.verified) == judge


# (T, refinement levels used): 30 and 282 fall short at every level
@pytest.mark.parametrize(
    "T, levels",
    [(100.0, 0), (257.3, 0), (30.0, 4), (14.0, 0), (282.0, 4), (300.0, 1), (1000.0, 1),
     (8000.0, 3)],
)
def test_verify_rh_evaluates_each_abscissa_once(T, levels, z_points):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalyticCountWarning)
        rep = verify_rh(T)
    sizes = [p.size for p in z_points]
    assert len(sizes) == 1 + levels  # the Gram points, then one call per level
    assert sizes[0] == 2 + zeta._gram_points(T).size
    assert sum(sizes) == rep.z_evaluations == np.unique(np.concatenate(z_points)).size


def test_verify_rh_at_the_bench_size_evaluates_12191_points(z_calls):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalyticCountWarning)
        rep = verify_rh(8000.0, 0.2)
    assert (rep.sign_change_count, rep.verified, rep.z_evaluations) == (7830, True, 12191)
    # 7,830 Gram points and the ends, then 1,213, 48 and 3 intervals refined
    assert z_calls == [7832, 3639, 576, 144]


@pytest.mark.parametrize("T", [14.0, 17.8, 300.0, 8000.0, 3e4])
def test_gram_points_solve_theta(T):
    g = zeta._gram_points(T)
    n = np.arange(g.size)
    assert g.size == math.floor(theta(T) / math.pi) + 1
    assert np.all(np.diff(g) > 0.0) and (g.size == 0 or T_MIN < g[0] and g[-1] < T)
    err = np.abs(zeta._theta(g, np.log) - math.pi * n)
    assert np.all(err <= 6 * np.spacing(np.maximum(math.pi * n, math.pi)))


def test_gram_points_published_values():
    # g_126 is the first Gram point where Gram's law fails
    g = zeta._gram_points(300.0)
    assert abs(g[0] - 17.8455995) < 1e-6
    assert abs(g[126] - 282.4547208) < 1e-6


@pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf, 0.0, -0.1])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: sign_changes(10.0, 30.0, s),
        lambda s: zeros_in(10.0, 30.0, s),
        lambda s: verify_rh(100.0, s),
    ],
    ids=["sign_changes", "zeros_in", "verify_rh"],
)
def test_non_finite_grid_step_rejected_before_any_work(call, step, z_calls):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^grid_step must be positive and finite$"):
            call(step)
    assert z_calls == []


def test_grid_step_too_small_to_count_rejected(z_calls):
    # (30 - 10) / 1e-310 overflows float64, so the point count is infinite
    with pytest.raises(ValueError, match="grid_step is too small"):
        sign_changes(10.0, 30.0, 1e-310)
    assert z_calls == []


def test_grid_over_the_point_cap_rejected_before_it_is_built(z_calls, monkeypatch):
    # 3e9 points at step 1e-5 would take 24 GB for the grid alone
    for call in (sign_changes, zeros_in):
        with pytest.raises(ValueError, match="would hold 2999000000 points, more than 16777216$"):
            call(10.0, 30000.0, 1e-5)
    assert z_calls == []
    # (30 - 10) / 0.25 = 80 steps: 81 points
    monkeypatch.setattr(zeta, "_GRID_MAX", 80)
    with pytest.raises(ValueError, match="would hold 81 points, more than 80$"):
        sign_changes(10.0, 30.0, 0.25)
    monkeypatch.setattr(zeta, "_GRID_MAX", 81)
    assert len(sign_changes(10.0, 30.0, 0.25)) == 3
