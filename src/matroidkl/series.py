"""Truncated formal power series in u with exact polynomial-in-t coefficients.

Series arithmetic runs only in the private list kernels below, exact up to
the fixed truncation order; nothing silently extends precision.  TruncSeries
is the value gf_expand returns: it holds and reads coefficients and does no
arithmetic.  The generating functions for the KL and Z polynomials of
the fan/wheel/whirl families are quotients N / (A + B·rad) of polynomials in
u, rad the principal square root (constant term +1) of a quadratic radicand
P.  The radical is expanded by its differential equation and each quotient
through its conjugate, so no step convolves two full series.
"""

from __future__ import annotations

from fractions import Fraction

from .kl import N_MAX
from .poly import ZERO, Poly, _add_product, _divexact, _int_in, _trimmed

GF_NAMES = ("kl_fan", "kl_wheel", "kl_whirl", "z_fan", "z_wheel", "z_whirl")
# the power of u at which each series starts: its lower coefficients are 0
GF_START = {"kl_fan": 0, "kl_wheel": 2, "kl_whirl": 1, "z_fan": 0, "z_wheel": 2, "z_whirl": 1}
# the highest power of u that divides a conjugate denominator A² − B²P of
# gf_expand (z_wheel's second term): numerators are expanded that far past
# the order
_SHIFT = 3


def _as_poly(c):
    if isinstance(c, Poly):
        return c
    if isinstance(c, (int, Fraction)):
        return Poly([c])
    if isinstance(c, list):  # ascending t-coefficients, as the kernels build them
        return Poly(c)
    raise TypeError(f"polynomial coefficient expected, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# kernels over a series held as one list per power of u, each the ascending
# t-coefficients of that coefficient with no trailing zeros ([] is 0).  They
# never change their arguments, so rows may be shared; a coefficient is an int,
# or a Fraction only where a division leaves one.


def _nonzero(rows):
    """(i, row) for every nonzero coefficient row of u^i."""
    return [(i, row) for i, row in enumerate(rows) if row]


def _add(a, b, sign=1):
    """a + sign·b, coefficient by coefficient."""
    return [_trimmed(_add_product(list(x), [sign], y)) for x, y in zip(a, b)]


def _mul(a, b):
    """a·b truncated at a's order, over the nonzero coefficients of each."""
    out = [[] for _ in a]
    b = _nonzero(b)
    for i, x in _nonzero(a):
        for j, y in b:
            if i + j >= len(out):
                break
            _add_product(out[i + j], x, y)
    return [_trimmed(row) for row in out]


# coefficient k of s / d is (s_k − Σ_{i≥1} d_i q_{k−i}) / d0, the sum over
# the nonzero d_i only; a d shorter than s is 0 beyond its end
def _div(s, d):
    """s / d for a d whose constant coefficient d0 divides each step."""
    d0 = d[0]
    if not d0:
        raise ValueError("series division needs a nonzero constant coefficient")
    tail = _nonzero(d)[1:]
    out = []
    for k, acc in enumerate(s):
        acc = list(acc)
        for i, c in tail:
            if i > k:
                break
            _add_product(acc, c, out[k - i], -1)
        out.append(_divexact(_trimmed(acc), d0))
    return out


# r = √p solves 2·p·r′ = p′·r, so with p_0 = 1 coefficient k of r is
# r_k = Σ_{i≥1} (3i − 2k)·p_i·r_{k−i} / (2k), the sum over the nonzero p_i
# only: a radicand with m terms costs m − 1 products per coefficient, and
# the division by 2k keeps the ints it divides ints
def _sqrt(p):
    """The principal square root of p, whose constant coefficient is 1."""
    tail = _nonzero(p)[1:]
    out = [[1]]
    for k in range(1, len(p)):
        acc = []
        for i, c in tail:
            if i > k:
                break
            _add_product(acc, c, out[k - i], 3 * i - 2 * k)
        out.append(_divexact(_trimmed(acc), [2 * k]))
    return out


class TruncSeries:
    """Power series in u modulo u^(order+1), coefficients in Q[t]: the value
    gf_expand returns, with no arithmetic of its own."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        _int_in(order, "truncation order")
        cs = [_as_poly(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        cs += [ZERO] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def coefficient(self, n):
        """The coefficient of u^n, for an int n in 0..order."""
        return self.coeffs[_int_in(n, "coefficient index", 0, self.order)]

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def integerized(self):
        """Return self, or raise unless every coefficient is an integer polynomial."""
        for c in self.coeffs:
            c.integerized()
        return self

    def __repr__(self):
        parts = [f"({c!r})*u^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return f"TruncSeries(order={self.order}: " + " + ".join(parts or ["0"]) + ")"


def _over(numer, a, b, radicand, rad, order):
    """numer / (a + b·rad) to the given order, where rad = √radicand and
    numer, a, b and the radicand are polynomials in u, all four given, like
    rad, as coefficient lists to a higher order.

    Through the conjugate the quotient is numer·(a − b·rad) / q with the
    polynomial q = a² − b²·radicand, since rad² = radicand.  With q = u^v·q̃
    and q̃(0) ≠ 0, the numerator's first v coefficients vanish; shifted down
    by v, it is divided by q̃ in one pass."""
    q = _add(_mul(a, a), _mul(_mul(b, b), radicand), -1)
    v = next((k for k, c in enumerate(q) if c), len(q))
    if v >= len(rad) - order:
        raise ArithmeticError(f"conjugate denominator divisible by u^{v}, beyond the expansion")
    top = _mul(numer, _add(a, _mul(b, rad), -1))
    if any(top[:v]):
        raise ArithmeticError(f"conjugate numerator not divisible by u^{v}")
    return _div(top[v:v + order + 1], q[v:v + order + 1])


def gf_expand(which, order):
    """Expand one of the six closed-form generating functions to the given
    truncation order; every coefficient comes out an integer polynomial.

    Each formula is written in u as printed, as a sum of quotients
    N / (A + B·rad) taken by _over; both radicals have integer coefficients,
    and so does every quotient."""
    n = _int_in(order, "order", 1, N_MAX)
    if which not in GF_NAMES:
        raise ValueError(f"unknown generating function {which!r}; expected one of {GF_NAMES}")

    def poly(*coeffs):  # a polynomial in u, to the order rad is expanded to
        rows = [([c] if c else []) if type(c) is int else c for c in coeffs]
        return rows + [[]] * (n + _SHIFT + 1 - len(rows))

    one = poly(1)[:n + 1]

    def over(numer, a, b):
        return _over(numer, a, b, radicand, rad, n)

    if which.startswith("kl"):
        # (u-1)^2 - 4 t u^2 = 1 - 2u + (1-4t) u^2
        radicand = poly(1, -2, [1, -4])
        rad = _sqrt(radicand)
        if which == "kl_fan":
            # 1 + 2u / (1 - u + rad)
            result = _add(one, over(poly(0, 2), poly(1, -1), poly(1)))
        elif which == "kl_wheel":
            # (2u - 2) / (1 - u + rad) - (2u^2 + 2u - 2) / ((u+1)(u + 1 + rad))
            # + 2u / ((u+1) rad)
            u_plus_1 = poly(1, 1)
            result = _add(_add(over(poly(-2, 2), poly(1, -1), poly(1)),
                               over(poly(-2, 2, 2), _mul(u_plus_1, u_plus_1), u_plus_1), -1),
                          over(poly(0, 2), poly(), u_plus_1))
        else:  # kl_whirl
            # (u+1) / (2 (tu+1) rad) - 1 / (2 (tu+1)): the odd constant of
            # u+1 cannot be halved, so the 1/2 is taken off the difference
            tu_plus_1 = poly(1, [0, 1])
            result = _div(_add(over(poly(1, 1), poly(), tu_plus_1),
                               over(poly(1), tu_plus_1, poly()), -1), [[2]])
    else:
        # (1-(t+1)u)^2 - 4 t u^2 = 1 - 2(t+1)u + (t-1)^2 u^2
        radicand = poly(1, [-2, -2], [1, -2, 1])
        rad = _sqrt(radicand)
        if which == "z_fan":
            # 2 / (1 - (t+1)u + rad)
            result = over(poly(2), poly(1, [-1, -1]), poly(1))
        elif which == "z_wheel":
            # 1/rad - 1 - 2u (1-(t+1)u) (t+1+tu) / (1 - (t+1)u - 2t u^2 + rad)
            numer = _mul(_mul(poly(0, 2), poly(1, [-1, -1])), poly([1, 1], [0, 1]))
            denom = poly(1, [-1, -1], [0, -2])
            result = _add(_add(over(poly(1), poly(), poly(1)), one, -1),
                          over(numer, denom, poly(1)), -1)
        else:  # z_whirl
            # 1/rad - 1
            result = _add(over(poly(1), poly(), poly(1)), one, -1)
    return TruncSeries(n, result).integerized()
