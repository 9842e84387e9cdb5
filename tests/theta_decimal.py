"""The Riemann-Siegel phase theta(t) in ``decimal`` arithmetic, used only by the test suite.

theta(t) has the asymptotic expansion

    t/2 log(t/2pi) - t/2 - pi/8 + sum_{k>=1} (1 - 2^(1-2k)) |B_2k| / (4k (2k-1) t^(2k-1)),

whose first terms are 1/(48t), 7/(5760 t^3), 31/(80640 t^5) and
127/(430080 t^7).  ``theta_series`` sums the first ``TERMS`` of them at
50 digits, with ``Decimal.ln`` and the 50-digit pi literal of
``phi_decimal``, and rounds to 40 digits.  The series is enveloping, so
leaving out the rest costs less than twice the first omitted term,
1.4e-20 at t = 10.  Beyond all its orders theta also holds a term of
about e^(-pi t)/2, which the judge leaves out: 1.1e-14 at t = 10, below
1e-24 from t = 18.  Both are far below the truncation bound that
``conjlab.zeta.theta_value`` reports there (7.7e-9 at t = 10).  The
judge shares no code with ``conjlab.zeta``.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

from phi_decimal import PI

TERMS = 10


def bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2) by the recurrence sum_{j<=n} binom(n+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        binom = 1  # binom(m + 1, j)
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    return b[n]


def coefficient(k: int) -> Fraction:
    """The coefficient of t^-(2k-1) in theta's expansion."""
    return (1 - Fraction(1, 2 ** (2 * k - 1))) * abs(bernoulli(2 * k)) / (4 * k * (2 * k - 1))


_COEFFS = [coefficient(k) for k in range(1, TERMS + 1)]


def theta_series(t: float) -> Decimal:
    """theta(t) at the float t, taken exactly, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(t)
        acc = x / 2 * (x / (2 * PI)).ln() - x / 2 - PI / 8
        for k, c in enumerate(_COEFFS, 1):
            acc += Decimal(c.numerator) / Decimal(c.denominator) / x ** (2 * k - 1)
        ctx.prec = 40
        return +acc
