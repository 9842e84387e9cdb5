"""Frozen reference for Riemann-Siegel Z(t), used only by the test suite.

``z_values_reference(ts)`` is the Z kernel as it was before the stacked
Chebyshev pass: one boolean mask per main-sum term with a gather and a
scatter-add, and four separate Clenshaw recurrences for Phi and its
derivatives of orders 0, 2, 3 and 6.  It shares no code with
``conjlab.zeta``, so the package's kernel is judged against an
independent implementation, value for value with ``np.array_equal``.
It takes no domain checks; pass it abscissae in [10, 3e4].
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

_TWO_PI = 2.0 * math.pi


def _phi_raw(z: np.ndarray) -> np.ndarray:
    return np.cos(np.pi * z * z / 2.0 + 3.0 * np.pi / 8.0) / np.cos(np.pi * z)


_PHI_SCALE = 1.2
_PHI_CHEB = _cheb.Chebyshev(
    _cheb.chebinterpolate(lambda u: _phi_raw(_PHI_SCALE * u), 26)
)
_PHI_DERIVS = {k: _PHI_CHEB.deriv(k) if k else _PHI_CHEB for k in (0, 2, 3, 6)}


def _phi_deriv(z: np.ndarray, k: int) -> np.ndarray:
    return _PHI_DERIVS[k](z / _PHI_SCALE) / _PHI_SCALE**k


def _theta(t, log):
    return (
        0.5 * t * log(t / _TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
    )


def z_values_reference(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    tau = np.sqrt(ts / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    th = _theta(ts, np.log)
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
