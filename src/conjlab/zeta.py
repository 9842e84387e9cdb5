"""Riemann-Siegel evaluation of Z(t) and zero verification on [10, T].

theta(t) is the phase t/2 log(t/2pi) - t/2 - pi/8 plus the asymptotic
corrections 1/(48t) + 7/(5760 t^3); the next term is 31/(80640 t^5),
and twice it bounds the truncation error (the series is enveloping, so
for t >= 10 the tail is below twice its first omitted term).
theta_value adds a bound on float64 rounding, the larger term from
t ~ 95 on (2.9e-11 at t = 1e4, where truncation is 7.7e-24); the
decimal judge tests/theta_decimal.py checks the sum up to t = 1e15.

Z(t) = exp(i theta(t)) zeta(1/2 + it) is real with |Z| = |zeta| on the
critical line, so each sign change of Z brackets a zero.  verify_rh
counts them at the Gram points g_n, where theta(g_n) = n pi and Z(g_n)
usually has the sign (-1)^n.  The good points, where it does, cut
[10, T] into Rosser blocks that usually hold one zero per interval, so
only the blocks short of sign changes are sampled again, 4 to 256 times
finer (Brent 1979, On the zeros of the Riemann zeta function in the
critical strip; Edwards, Riemann's Zeta Function, ch. 8).  zeros_in
scans a uniform grid and bisects its brackets in lockstep from the
scan's own Z values at their ends, one z_values call per halving step
for all of them.  With tau = sqrt(t/2pi), m = floor(tau), p = tau - m,
z = 2p - 1,

    Z(t) ~= 2 sum_{n<=m} cos(theta(t) - t log n) / sqrt(n)
            + (-1)^(m-1) tau^(-1/2)
              [ C0(z) + C1(z)/tau + C2(z)/tau^2 ],

    Phi(z) = cos(pi z^2/2 + 3pi/8) / cos(pi z)    (entire),
    C0 = Phi,
    C1 = -Phi'''/(12 pi^2),
    C2 = Phi''/(16 pi^2) + Phi^(6)/(288 pi^4).

Phi and its derivatives are evaluated through one Chebyshev interpolant
built at import time (the closed form has removable singularities at
z = +-1/2 that the interpolant absorbs).  The C1/C2 coefficient
structure was cross-checked numerically against an independent
multiprecision evaluator before being frozen here.  The interpolant has
degree 26, where Phi's coefficients reach rounding noise; any higher
degree only adds noise that differentiation amplifies.  Against the
decimal judge tests/phi_decimal.py (40 digits, 375 points of [-1, 1]
with |cos(pi z)| >= 0.1), Phi is off by up to 1.4e-15, Phi'' by
1.5e-12, Phi''' by 5.7e-11 and Phi^(6) by 4.6e-6, which C2's weight
1/(288 pi^4 tau^2 sqrt(tau)) turns into 4e-15 in Z at t = 3e4.  At
degree 100 they were 1.9e-14, 3.3e-10, 5.1e-8 and 0.157, up to 1.4e-10
in Z at t = 3e4.

z_values sorts its abscissae and evaluates them in blocks of 8192 points.
In a block, m never decreases, so the points that take term n of the
main sum form a suffix, and each term is added on a slice.  The four Phi
series come from one Clenshaw pass (one chebval call) over their stacked,
zero-padded coefficients.  Both give the same float64 bits as a masked
sum per term and four separate chebval calls.

The reported accuracy 0.03 t^(-7/4) is an empirical desk-scale
calibration with a 2x margin over the worst case observed on
10 <= t <= 5000 (2.2e-4 near t = 10.7); it is not a proven bound.  The
t^(-7/4) shape matches the first omitted correction order.  Higher up,
float64 rounding in t log n overtakes it: against mpmath's siegelz the
worst error/bound ratio was 0.36 on [2e4, 3e4], 0.90 on [3e4, 4e4] and
above 1 from 4e4 on (11 on [1e5, 2e5]).  So Z is evaluated only for
t <= 3e4 and larger t is rejected.  theta, and the analytic count built
on it, accept t up to 1e15: there theta(t)/pi reaches 2^52, where the
float64 spacing is 1, so neither the rounded count nor the truncation
bound would mean anything further up.

zero_count_analytic rounds theta(T)/pi + 1 to the nearest integer, which
equals the true zero count N(T) whenever |S(T)| < 1/2.  S(T) does dip
past 1/2 occasionally; the function warns when the rounded quantity sits
within 0.3 of a half-integer, where a miscount is most plausible.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import Z_CORRECTION_ORDER

__all__ = [
    "T_MIN",
    "Z_CORRECTION_ORDER",
    "ThetaValue",
    "ZEvaluation",
    "ZeroBracket",
    "RHReport",
    "AnalyticCountWarning",
    "theta",
    "theta_value",
    "z_values",
    "z_function",
    "sign_changes",
    "refine_zero",
    "zeros_in",
    "zero_count_analytic",
    "verify_rh",
]

T_MIN = 10.0
_TWO_PI = 2.0 * math.pi
_Z_ERR_COEFF = 0.03
_Z_T_MAX = 3e4  # _Z_ERR_COEFF is checked against mpmath up to here
# theta(t)/pi >= 2^52 from here on, where float64 spacing reaches 1
_THETA_T_MAX = 1e15
_HALF_WARN_BAND = 0.3
# The most points a sign scan lays out at its step (the end point t_hi may
# add one): the grid and its Z values take 16 bytes a point, 256 MiB here.
_GRID_MAX = 1 << 24


class AnalyticCountWarning(UserWarning):
    """The analytic zero count is near a rounding boundary and may be off by one."""


@dataclass(frozen=True)
class ThetaValue:
    t: float
    theta: float
    error_bound: float


@dataclass(frozen=True)
class ZEvaluation:
    t: float
    z: float
    terms: int
    error_bound: float


@dataclass(frozen=True)
class ZeroBracket:
    t_lo: float
    t_hi: float


@dataclass(frozen=True)
class RHReport:
    T: float
    sign_change_count: int
    analytic_count: int
    verified: bool
    z_evaluations: int


def _phi_raw(z: np.ndarray) -> np.ndarray:
    # sampled only at the Chebyshev nodes, where |cos(pi z)| >= 0.0195, so
    # the removable singularities at z = +-1/2 are never hit
    return np.cos(np.pi * z * z / 2.0 + 3.0 * np.pi / 8.0) / np.cos(np.pi * z)


# Interpolate Phi(1.2 u) on u in [-1, 1]; z stays well inside the domain.
_PHI_SCALE = 1.2
# Phi's Chebyshev coefficients reach float64 rounding noise at k = 26
# (|a_24| = 6.5e-15, |a_26| = 2.7e-16; Phi is even, so the odd ones are
# noise throughout).  Higher degrees add no accuracy, only noise that each
# derivative amplifies.  The judge is tests/phi_decimal.py: of degrees 24
# to 30, 26 puts Phi, Phi'' and Phi''' closest to it (Phi''' within
# 5.7e-11; 1.6e-10 at 28, 5.1e-8 at degree 100).
_PHI_DEGREE = 26
_PHI_CHEB = _cheb.Chebyshev(
    _cheb.chebinterpolate(lambda u: _phi_raw(_PHI_SCALE * u), _PHI_DEGREE)
)
# Z uses Phi and its derivatives of orders 2, 3 and 6 only.
_PHI_ORDERS = (0, 2, 3, 6)


def _phi_stack() -> np.ndarray:
    """The series of Phi^(k), k in _PHI_ORDERS, as the columns of one
    (_PHI_DEGREE + 1, 4) array, zero-padded at the high-order end.  The
    padding keeps each column's Clenshaw recurrence at exact zeros until
    it reaches the series' leading coefficient, so one chebval pass
    gives the same bits as four."""
    # one chebder step per order, as Chebyshev.deriv(k) takes them
    series = [_PHI_CHEB.coef]
    for _ in range(_PHI_ORDERS[-1]):
        series.append(_cheb.chebder(series[-1]))
    stack = np.zeros((series[0].size, len(_PHI_ORDERS)))
    for j, k in enumerate(_PHI_ORDERS):
        stack[: series[k].size, j] = series[k]
    return stack


_PHI_STACK = _phi_stack()
_PHI_POWERS = np.array([[_PHI_SCALE**k] for k in _PHI_ORDERS])
# Points per Z block.  Re-timed at _PHI_DEGREE = 26 over 12 alternating
# rounds of verify_rh(8000, 0.2) on a 2-vCPU Xeon: 8192 beat 4096 in all
# 12 (4096 was 22 % slower), and 16384 and 32768 in 11 (12 % and 21 %
# slower).  Smaller blocks make more numpy calls per point; larger ones
# hold more than 256 KiB in ts, th, acc and the term buffer.
_Z_BLOCK = 8192


def _check_t(t: float) -> None:
    if not t >= T_MIN:
        raise ValueError(f"t must be >= {T_MIN}; the asymptotics used here need it")
    if t == math.inf:
        raise ValueError("t must be finite")


def _check_z_t(t: float) -> None:
    _check_t(t)
    if t > _Z_T_MAX:
        raise ValueError(f"t must be <= {_Z_T_MAX:g}; Z's error bound is calibrated only that far")


def _theta(t, log):
    # theta(t) on a float or an array; math.log and np.log may differ in
    # the last bit, so each caller keeps its own
    return (
        0.5 * t * log(t / _TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
    )


def theta(t: float) -> float:
    """Riemann-Siegel phase with corrections through t^-3, for t <= 1e15."""
    _check_t(t)
    if t > _THETA_T_MAX:
        raise ValueError(
            f"t must be <= {_THETA_T_MAX:g}; the float64 spacing of theta(t)/pi reaches 1 there"
        )
    return _theta(t, math.log)


def theta_value(t: float) -> ThetaValue:
    """theta(t) with a bound on its distance from the true phase.

    The bound adds the truncation bound 62/(80640 t^5) to a bound on
    the float64 rounding in ``theta``.  With u = 2^-53, h = t/2 (exact)
    and L = log(t/2pi), assuming ``math.log`` and ``t**3`` within 1 ulp
    (2u relative) of the exact result:

    - t / (2 math.pi) rounds twice (math.pi is pi within u), so log's
      argument is off by a relative 2u and L by 2u + 2u L with log's own
      ulp; times h that is 2u h + 2u h L;
    - h * L rounds once: u h L;
    - subtracting h rounds once: u |hL - h| <= u (h L + h);
    - math.pi / 8 is pi/8 within 0.4u; subtracting it and adding the
      two corrections round three times, u (|theta| + 0.003) each; the
      corrections are within 4u of themselves, below 0.01u for t >= 10.

    That is u (4 h L + 3 h + 3 |theta| + 0.43) to first order.  The
    term in h is rounded up to 4 h and the constant to 1: u h is far
    above every second-order term (u^2 h L times a small integer) and
    the rounding of the bound's own evaluation.
    """
    th = theta(t)
    h = 0.5 * t
    rounding = 2.0**-53 * (4.0 * h * math.log(t / _TWO_PI) + 4.0 * h + 3.0 * abs(th) + 1.0)
    return ThetaValue(t=t, theta=th, error_bound=62.0 / (80640.0 * t**5) + rounding)


def _z_block(ts: np.ndarray) -> np.ndarray:
    """Z on ascending abscissae.

    m never decreases along ts, so the points that take main-sum term n
    are the suffix from the first m >= n.  Each point still adds its
    terms n = 1, 2, ... in turn, as cos(th - t log n) / sqrt(n).
    """
    tau = np.sqrt(ts / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    th = _theta(ts, np.log)
    acc = np.zeros_like(ts)
    buf = np.empty_like(ts)
    for n, s in enumerate(np.searchsorted(m, np.arange(1, m[-1] + 1)).tolist(), 1):
        term = buf[s:]
        np.multiply(ts[s:], math.log(n), out=term)
        np.subtract(th[s:], term, out=term)
        np.cos(term, out=term)
        term /= math.sqrt(n)
        acc[s:] += term
    z = 2.0 * (tau - m) - 1.0
    phi, phi2, phi3, phi6 = _cheb.chebval(z / _PHI_SCALE, _PHI_STACK) / _PHI_POWERS
    pi2 = math.pi**2
    corr = (
        phi
        - phi3 / (12.0 * pi2) / tau
        + (phi2 / (16.0 * pi2) + phi6 / (288.0 * pi2**2)) / tau**2
    )
    sign = np.where(m % 2 == 1, 1.0, -1.0)  # (-1)^(m-1)
    return 2.0 * acc + sign * corr / np.sqrt(tau)


def z_values(ts) -> np.ndarray:
    """Vectorized Z(t) on an array of abscissae, all in [T_MIN, 3e4].

    The abscissae are evaluated in ascending order, in blocks of
    ``_Z_BLOCK`` points; the result has the shape of ``np.atleast_1d(ts)``.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if ts.size:
        _check_t(float(ts.min()))
        _check_z_t(float(ts.max()))
    order = np.argsort(ts, axis=None, kind="stable")
    ascending = ts.ravel()[order]
    out = np.empty(ts.shape)
    for a in range(0, ts.size, _Z_BLOCK):
        out.flat[order[a : a + _Z_BLOCK]] = _z_block(ascending[a : a + _Z_BLOCK])
    return out


def z_function(t: float) -> ZEvaluation:
    """Z(t) with the number of main-sum terms and the calibrated accuracy."""
    zval = float(z_values(np.array([t]))[0])
    m = int(math.floor(math.sqrt(t / _TWO_PI)))
    return ZEvaluation(
        t=t, z=zval, terms=m, error_bound=_Z_ERR_COEFF * t ** (-1.75)
    )


def sign_changes(t_lo: float, t_hi: float, grid_step: float) -> list[ZeroBracket]:
    """Brackets [t_i, t_{i+1}] on which Z changes sign over a uniform grid.

    Every bracket contains an odd number of zeros, so the count is a
    lower bound on the number of zeros of Z in (t_lo, t_hi); a grid
    coarser than the local zero spacing undercounts, never overcounts.
    """
    ts, _, at = _sign_flips(t_lo, t_hi, grid_step)
    return [ZeroBracket(t_lo=float(ts[i]), t_hi=float(ts[i + 1])) for i in at]


def _check_step(grid_step: float) -> None:
    if not 0.0 < grid_step < math.inf:
        raise ValueError("grid_step must be positive and finite")


def _sign_flips(
    t_lo: float, t_hi: float, grid_step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid ts of ``sign_changes``, Z on it in one z_values call, and
    the indices i at which Z changes sign on [ts[i], ts[i + 1]].  A grid
    of more than ``_GRID_MAX`` points is rejected before it is built."""
    _check_t(t_lo)
    if not t_hi > t_lo:
        raise ValueError("t_hi must exceed t_lo")
    _check_z_t(t_hi)
    _check_step(grid_step)
    steps = (t_hi - t_lo) / grid_step
    if steps == math.inf:
        raise ValueError("grid_step is too small: the grid's point count overflows")
    points = int(math.floor(steps + 1e-9)) + 1
    if points > _GRID_MAX:
        raise ValueError(
            f"grid_step is too small: the grid would hold {points} points, "
            f"more than {_GRID_MAX}"
        )
    ts = t_lo + grid_step * np.arange(points, dtype=np.float64)
    if ts[-1] < t_hi - 1e-12 * max(1.0, abs(t_hi)):
        ts = np.append(ts, t_hi)
    zv = z_values(ts)
    return ts, zv, np.flatnonzero(zv[:-1] * zv[1:] < 0.0)


def _bisect(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, tol: float) -> list[float]:
    # halves the brackets [lo, hi] in place, where Z is f_lo at lo and has
    # the other sign at hi, in lockstep to width tol: one z_values call a step
    live = np.flatnonzero(hi - lo > tol)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = z_values(mid)
        # a midpoint that rounds onto an end has adjacent floats for ends
        split = (lo[live] < mid) & (mid < hi[live])
        left = f_lo[live] * f_mid < 0.0
        # an exact zero collapses its bracket onto mid = 0.5 * (mid + mid)
        hi[live] = np.where(left | (f_mid == 0.0), mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
        f_lo[live] = np.where(left, f_lo[live], f_mid)
        live = live[split & (hi[live] - lo[live] > tol)]
    return (0.5 * (lo + hi)).tolist()


def refine_zero(bracket: ZeroBracket, tol: float = 1e-9) -> float:
    """Bisect to width ``tol``, one z_values call per halving step, as in zeros_in.

    ``tol`` bounds the width of the final bracket, not the distance to the
    true zero; see ``zeros_in``.  Where ``tol`` is below the float spacing,
    the bracket stops at two adjacent floats.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not bracket.t_lo < bracket.t_hi:
        raise ValueError("bracket must have t_lo < t_hi")
    ends = np.array([bracket.t_lo, bracket.t_hi], dtype=np.float64)
    f = z_values(ends)
    if not f[0] * f[1] < 0.0:
        raise ValueError("bracket endpoints must have opposite Z signs")
    return _bisect(ends[:1], ends[1:], f[:1], tol)[0]


def zeros_in(
    t_lo: float, t_hi: float, grid_step: float = 0.05, tol: float = 1e-9
) -> list[float]:
    """Scanned zeros of [t_lo, t_hi]; one z_values call per lockstep halving step.

    Each ordinate is the midpoint of a bracket of ``sign_changes`` bisected
    to width ``tol`` (or to two adjacent floats, where ``tol`` is below
    their spacing), starting from the scan's own Z values at its ends.
    ``tol`` bounds that width, not the distance to the true zero, which is
    set by Z's error bound over |Z'| there: for ``zeros_in(10, 60)`` the
    first zero is 9.8e-5 from mpmath's ``zetazero(1)`` (Z's bound is
    2.9e-4 at t = 14.1), the other twelve 9e-7 to 1.7e-5 from theirs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ts, zv, at = _sign_flips(t_lo, t_hi, grid_step)
    return _bisect(ts[at], ts[at + 1], zv[at], tol)


def zero_count_analytic(T: float) -> int:
    """Nearest integer to theta(T)/pi + 1, the zero count for T in any
    range where |S(T)| < 1/2.  Warns when the value is close enough to a
    rounding boundary that an S-excursion could shift the count.

    The 0.3 band ignores the float64 error of theta itself, which
    ``theta_value`` bounds: theta(T)/pi is 0.02 off at T = 1e14 and 0.8
    off at 1e15 (bounds 0.38 and 4.1), so up there the rounded count
    can be off by one with no warning."""
    main = theta(T) / math.pi + 1.0
    if abs(main - (math.floor(main) + 0.5)) < _HALF_WARN_BAND:
        warnings.warn(
            f"theta({T})/pi + 1 = {main:.6f} is within {_HALF_WARN_BAND} of a "
            "half-integer; the rounded count may be off by one",
            AnalyticCountWarning,
            stacklevel=2,
        )
    return int(math.floor(main + 0.5))


def _gram_points(T: float) -> np.ndarray:
    """The Gram points g_n in (T_MIN, T), where theta(g_n) = n pi, ascending.

    theta is increasing and convex past 2 pi, and theta'(t) is at most
    1/2 log(t / 2pi), so Newton's method with that slope, started at T,
    steps down towards each root and never past it.  g_0 = 17.8455995
    is the first: theta(T_MIN) / pi is -0.98.
    """
    n = np.arange(math.floor(_theta(T, math.log) / math.pi) + 1)
    target = math.pi * n
    g = np.full(n.size, float(T))
    while True:
        step = (_theta(g, np.log) - target) / (0.5 * np.log(g / _TWO_PI))
        g -= step
        if not np.any(step > 1e-15 * g):
            return g[g < T]


# Each refinement level cuts the intervals of the short Rosser blocks 4 times
# finer, so level L keeps every point of level L - 1: lo + w (k / 4^(L-1))
# and lo + w (4k / 4^L) are the same float.  The last level is 256 parts.
_ROSSER_SPLIT = 4
_ROSSER_LEVELS = 4


def verify_rh(
    T: float, grid_step: float = 0.05, max_refinements: int = 3
) -> RHReport:
    """Check that sign changes of Z on [10, T] account for every zero
    predicted analytically up to height T.

    Z is sampled at 10, at every Gram point g_n in (10, T), where
    theta(g_n) = n pi, and at T, in one z_values call.  The scan starts
    at 10, below the lowest zero (near 14.13), so nothing is missed on
    (0, 10).  A Gram point is good when (-1)^n Z(g_n) > 0; 10 and T count
    as good.  The good points cut the samples into Rosser blocks, and a
    block of k intervals usually holds k zeros (Rosser's rule; it first
    fails near g_13999525, far above Z's cap).  While the sign changes
    between neighbouring samples fall short of ``zero_count_analytic(T)``,
    every interval of each block with fewer sign changes than intervals
    is cut into 4, then 16, 64 and 256 equal parts, one z_values call per
    level for all short blocks; a finer level reuses the coarser one's
    points.  ``verified`` records exact agreement after the last level.
    ``z_evaluations`` is the number of distinct abscissae evaluated, each
    once: 12,191 at T = 8000, for 7,830 zeros.  T above Z's cap of 3e4 is
    rejected before any count.

    ``grid_step`` and ``max_refinements`` are validated but otherwise
    ignored; they sized the uniform grid that this scan replaced.
    """
    if not T >= 14.0:
        raise ValueError("T must be >= 14 (below the first zero the report is vacuous)")
    _check_z_t(T)
    _check_step(grid_step)
    if max_refinements < 0:
        raise ValueError("max_refinements must be non-negative")
    count = zero_count_analytic(T)
    ts = np.concatenate(([T_MIN], _gram_points(T), [T]))
    zv = z_values(ts)
    evaluated = ts.size
    # the samples of each interval [ts[i], ts[i + 1]] so far (rows follow
    # ``live``), and the sign changes among them
    vals = np.stack([zv[:-1], zv[1:]], axis=1)
    found = np.count_nonzero(vals[:, :-1] * vals[:, 1:] < 0.0, axis=1)
    good = np.ones(ts.size, dtype=bool)
    good[1:-1] = np.where(np.arange(ts.size - 2) % 2 == 0, zv[1:-1], -zv[1:-1]) > 0.0
    starts = np.flatnonzero(good)
    width = np.diff(starts)  # intervals per Rosser block
    live = np.arange(found.size)
    parts = 1
    for _ in range(_ROSSER_LEVELS):
        if found.sum() >= count:
            break
        # the intervals of the blocks with fewer sign changes than intervals
        short = np.repeat(np.add.reduceat(found, starts[:-1]) < width, width)[live]
        live, vals = live[short], vals[short]
        parts *= _ROSSER_SPLIT
        k = np.arange(1, parts)
        k = k[k % _ROSSER_SPLIT != 0]
        lo = ts[live]
        pts = lo[:, None] + (ts[live + 1] - lo)[:, None] * (k / parts)
        finer = np.empty((live.size, parts + 1))
        finer[:, ::_ROSSER_SPLIT] = vals
        finer[:, k] = z_values(pts)
        evaluated += pts.size
        vals = finer
        found[live] = np.count_nonzero(vals[:, :-1] * vals[:, 1:] < 0.0, axis=1)
    total = int(found.sum())
    return RHReport(
        T=T,
        sign_change_count=total,
        analytic_count=count,
        verified=total == count,
        z_evaluations=evaluated,
    )
