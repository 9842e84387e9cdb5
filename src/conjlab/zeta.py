"""Riemann-Siegel evaluation of Z(t) and zero verification on [10, T].

theta(t) is the phase t/2 log(t/2pi) - t/2 - pi/8 plus the asymptotic
corrections 1/(48t) + 7/(5760 t^3); the next term is 31/(80640 t^5),
and twice it is reported as a bound on the truncation error (the series
is enveloping, so for t >= 10 the tail is below twice its first omitted
term).

Z(t) = exp(i theta(t)) zeta(1/2 + it) is real with |Z| = |zeta| on the
critical line, so each sign change of Z brackets a zero.  The brackets
are bisected in lockstep, one z_values call per halving step for all of
them.  With tau = sqrt(t/2pi), m = floor(tau), p = tau - m, z = 2p - 1,

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
multiprecision evaluator before being frozen here.

The reported accuracy 0.03 t^(-7/4) is an empirical desk-scale
calibration with a 2x margin over the worst case observed on
10 <= t <= 5000 (2.2e-4 near t = 10.7); it is not a proven bound.  The
t^(-7/4) shape matches the first omitted correction order.

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

__all__ = [
    "T_MIN",
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
Z_CORRECTION_ORDER = 2
_TWO_PI = 2.0 * math.pi
_Z_ERR_COEFF = 0.03
_HALF_WARN_BAND = 0.3


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
    grid_step: float


def _phi_raw(z: np.ndarray) -> np.ndarray:
    num = np.cos(np.pi * z * z / 2.0 + 3.0 * np.pi / 8.0)
    den = np.cos(np.pi * z)
    # l'Hopital at the removable singularities z = +-1/2
    small = np.abs(den) < 1e-8
    lim_num = np.sin(np.pi * z * z / 2.0 + 3.0 * np.pi / 8.0) * z
    lim_den = np.sin(np.pi * z)
    safe_den = np.where(small, 1.0, den)
    safe_lim = np.where(small, lim_den, 1.0)
    return np.where(small, lim_num / safe_lim, num / safe_den)


# Interpolate Phi(1.2 u) on u in [-1, 1]; z stays well inside the domain.
_PHI_SCALE = 1.2
_PHI_CHEB = _cheb.Chebyshev(
    _cheb.chebinterpolate(lambda u: _phi_raw(_PHI_SCALE * u), 100)
)
_PHI_DERIVS = [_PHI_CHEB.deriv(k) if k else _PHI_CHEB for k in range(7)]


def _phi_deriv(z: np.ndarray, k: int) -> np.ndarray:
    return _PHI_DERIVS[k](z / _PHI_SCALE) / _PHI_SCALE**k


def _check_t(t: float) -> None:
    if not t >= T_MIN:
        raise ValueError(f"t must be >= {T_MIN}; the asymptotics used here need it")


def theta(t: float) -> float:
    """Riemann-Siegel phase with corrections through t^-3."""
    _check_t(t)
    return (
        0.5 * t * math.log(t / _TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
    )


def theta_value(t: float) -> ThetaValue:
    """theta(t) together with a bound on the truncation error."""
    return ThetaValue(t=t, theta=theta(t), error_bound=62.0 / (80640.0 * t**5))


def _theta_vec(ts: np.ndarray) -> np.ndarray:
    return (
        0.5 * ts * np.log(ts / _TWO_PI)
        - 0.5 * ts
        - math.pi / 8.0
        + 1.0 / (48.0 * ts)
        + 7.0 / (5760.0 * ts**3)
    )


def z_values(ts) -> np.ndarray:
    """Vectorized Z(t) on an array of abscissae (all >= T_MIN)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if ts.size and not float(ts.min()) >= T_MIN:
        raise ValueError(f"t must be >= {T_MIN}; the asymptotics used here need it")
    tau = np.sqrt(ts / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    th = _theta_vec(ts)
    acc = np.zeros_like(ts)
    for n in range(1, int(m.max()) + 1 if ts.size else 1):
        mask = m >= n
        acc[mask] += np.cos(th[mask] - ts[mask] * math.log(n)) / math.sqrt(n)
    z = 2.0 * (tau - m) - 1.0
    pi2 = math.pi**2
    corr = (
        _phi_deriv(z, 0)
        - _phi_deriv(z, 3) / (12.0 * pi2) / tau
        + (_phi_deriv(z, 2) / (16.0 * pi2) + _phi_deriv(z, 6) / (288.0 * pi2**2))
        / tau**2
    )
    sign = np.where(m % 2 == 1, 1.0, -1.0)  # (-1)^(m-1)
    return 2.0 * acc + sign * corr / np.sqrt(tau)


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
    _check_t(t_lo)
    if not t_hi > t_lo:
        raise ValueError("t_hi must exceed t_lo")
    if not grid_step > 0.0:
        raise ValueError("grid_step must be positive")
    n = int(math.floor((t_hi - t_lo) / grid_step + 1e-9))
    ts = t_lo + grid_step * np.arange(n + 1, dtype=np.float64)
    if ts[-1] < t_hi - 1e-12 * max(1.0, abs(t_hi)):
        ts = np.append(ts, t_hi)
    zv = z_values(ts)
    flips = np.flatnonzero(zv[:-1] * zv[1:] < 0.0)
    return [ZeroBracket(t_lo=float(ts[i]), t_hi=float(ts[i + 1])) for i in flips]


def _bisect(brackets: list[ZeroBracket], tol: float) -> list[float]:
    if not brackets:
        return []
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = np.array([(b.t_lo, b.t_hi) for b in brackets], dtype=np.float64).T
    f_lo, f_hi = np.split(z_values(np.concatenate([lo, hi])), 2)
    if not (f_lo * f_hi < 0.0).all():
        raise ValueError("bracket endpoints must have opposite Z signs")
    live = np.flatnonzero(hi - lo > tol)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = z_values(mid)
        left = f_lo[live] * f_mid < 0.0
        # an exact zero collapses its bracket onto mid = 0.5 * (mid + mid)
        hi[live] = np.where(left | (f_mid == 0.0), mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
        f_lo[live] = np.where(left, f_lo[live], f_mid)
        live = live[hi[live] - lo[live] > tol]
    return (0.5 * (lo + hi)).tolist()


def refine_zero(bracket: ZeroBracket, tol: float = 1e-9) -> float:
    """Bisect to width ``tol``, one z_values call per halving step, as in zeros_in.

    ``tol`` bounds the width of the final bracket, not the distance to the
    true zero; see ``zeros_in``.
    """
    return _bisect([bracket], tol)[0]


def zeros_in(
    t_lo: float, t_hi: float, grid_step: float = 0.05, tol: float = 1e-9
) -> list[float]:
    """Scanned zeros of [t_lo, t_hi]; one z_values call per lockstep halving step.

    Each ordinate is the midpoint of a bracket bisected to width ``tol``.
    ``tol`` bounds that width, not the distance to the true zero, which is
    set by Z's error bound over |Z'| there: for ``zeros_in(10, 60)`` the
    first zero is 9.8e-5 from mpmath's ``zetazero(1)`` (Z's bound is
    2.9e-4 at t = 14.1), the other twelve 1e-6 to 2e-5 from theirs.
    """
    return _bisect(sign_changes(t_lo, t_hi, grid_step), tol)


def _analytic_count(T: float) -> tuple[int, float, bool]:
    main = theta(T) / math.pi + 1.0
    count = int(math.floor(main + 0.5))
    near_boundary = abs(main - (math.floor(main) + 0.5)) < _HALF_WARN_BAND
    return count, main, near_boundary


def zero_count_analytic(T: float) -> int:
    """Nearest integer to theta(T)/pi + 1, the zero count for T in any
    range where |S(T)| < 1/2.  Warns when the value is close enough to a
    rounding boundary that an S-excursion could shift the count."""
    _check_t(T)
    count, main, near = _analytic_count(T)
    if near:
        warnings.warn(
            f"theta({T})/pi + 1 = {main:.6f} is within {_HALF_WARN_BAND} of a "
            "half-integer; the rounded count may be off by one",
            AnalyticCountWarning,
            stacklevel=2,
        )
    return count


def verify_rh(
    T: float, grid_step: float = 0.05, max_refinements: int = 3
) -> RHReport:
    """Check that sign changes of Z on [10, T] account for every zero
    predicted analytically up to height T.

    The scan starts at 10, below the lowest zero (near 14.13), so nothing
    is missed on (0, 10).  If the scan undercounts, the grid is halved up
    to ``max_refinements`` times; ``verified`` records exact agreement at
    the final grid.
    """
    if not T >= 14.0:
        raise ValueError("T must be >= 14 (below the first zero the report is vacuous)")
    if not grid_step > 0.0:
        raise ValueError("grid_step must be positive")
    if max_refinements < 0:
        raise ValueError("max_refinements must be non-negative")
    count = zero_count_analytic(T)
    step_now = grid_step
    for attempt in range(max_refinements + 1):
        found = len(sign_changes(T_MIN, T, step_now))
        if found >= count:
            break
        if attempt < max_refinements:
            step_now *= 0.5
    return RHReport(
        T=T,
        sign_change_count=found,
        analytic_count=count,
        verified=found == count,
        grid_step=step_now,
    )
