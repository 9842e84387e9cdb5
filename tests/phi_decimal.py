"""Phi and its derivatives in ``decimal`` arithmetic, used only by the test suite.

Phi(z) = cos(pi z^2/2 + 3pi/8) / cos(pi z) is the function behind the
Riemann-Siegel corrections C0..C2.  Multiplying out the denominator gives

    Phi(z) cos(pi z) = cos(q(z)),    q(z) = pi z^2/2 + 3pi/8,

and Leibniz's rule turns the k-th derivative of that identity into

    sum_{j<=k} binom(k, j) Phi^(j)(z) (d/dz)^(k-j) cos(pi z) = Re d^k e^{iq},

so Phi^(k) follows from Phi, ..., Phi^(k-1) by one division by cos(pi z).
The right side is Re(P_k e^{iq}), where P_0 = 1 and P_{k+1} = P_k' +
i pi z P_k (as q' = pi z): a polynomial in z, kept exactly as a list of
complex coefficients.  Everything runs at 50 digits with Taylor-series
cos and sin and the 50-digit pi literal below, and the results are
rounded to 40.  Each division by cos(pi z) can lose one digit when
|cos(pi z)| >= 0.1, so seven of them leave more than 40 correct digits.
The judge shares no code with ``conjlab.zeta``.
"""

from decimal import Decimal, localcontext
from math import comb

PI = Decimal("3.1415926535897932384626433832795028841971693993751")
DIGITS = 40
_WORK = 50


def cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, for |x| up to a few units."""
    cos = sin = Decimal(0)
    term = Decimal(1)  # x^n / n!
    n = 0
    eps = Decimal(10) ** -(_WORK + 2)
    while abs(term) > eps:
        if n % 2 == 0:
            cos += term if n % 4 == 0 else -term
        else:
            sin += term if n % 4 == 1 else -term
        n += 1
        term = term * x / n
    return cos, sin


def _next_poly(p: list[tuple[Decimal, Decimal]]) -> list[tuple[Decimal, Decimal]]:
    # P' + i pi z P, coefficients (re, im) from the constant term up
    out = [(Decimal(0), Decimal(0))] * (len(p) + 1)
    for j in range(1, len(p)):
        re, im = p[j]
        out[j - 1] = (out[j - 1][0] + j * re, out[j - 1][1] + j * im)
    for j, (re, im) in enumerate(p):
        # i pi z (re + i im) = -pi im z + i pi re z
        out[j + 1] = (out[j + 1][0] - PI * im, out[j + 1][1] + PI * re)
    return out


def phi_derivatives(z: float, kmax: int = 6) -> list[Decimal]:
    """[Phi(z), Phi'(z), ..., Phi^(kmax)(z)] at the float z, rounded to 40 digits.

    ``z`` is taken exactly (``Decimal(float)``); it must keep
    |cos(pi z)| well away from 0.
    """
    with localcontext() as ctx:
        ctx.prec = _WORK
        x = Decimal(z)
        cos_q, sin_q = cos_sin(PI * x * x / 2 + 3 * PI / 8)
        cos_pz, sin_pz = cos_sin(PI * x)
        # (d/dz)^i cos(pi z) = pi^i cos(pi z + i pi/2), which cycles through
        # cos, -sin, -cos, sin
        cycle = (cos_pz, -sin_pz, -cos_pz, sin_pz)
        c = [PI**i * cycle[i % 4] for i in range(kmax + 1)]
        phi: list[Decimal] = []
        poly = [(Decimal(1), Decimal(0))]
        for k in range(kmax + 1):
            re = im = Decimal(0)
            for a, b in reversed(poly):  # Horner
                re, im = re * x + a, im * x + b
            rhs = re * cos_q - im * sin_q  # Re(P_k e^{iq})
            rhs -= sum((comb(k, j) * phi[j] * c[k - j] for j in range(k)), Decimal(0))
            phi.append(rhs / c[0])
            poly = _next_poly(poly)
        ctx.prec = DIGITS
        return [+v for v in phi]
