"""Truncated formal power series in u with exact polynomial-in-t coefficients.

All operations are exact up to the fixed truncation order; nothing silently
extends precision.  The generating functions for the KL and Z polynomials of
the fan/wheel/whirl families are quotients N / (A + B·rad) of polynomials in
u, rad the principal square root (constant term +1) of a quadratic radicand
P.  The radical is expanded by its differential equation and each quotient
through its conjugate, so no step convolves two full series.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ONE, ZERO, Poly, _nonnegative_int, divexact

MAX_ORDER = 64

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
    raise TypeError(f"polynomial coefficient expected, got {type(c).__name__}")


def _nonzero(coeffs):
    """(i, c) for every nonzero coefficient c of u^i."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


class TruncSeries:
    """Power series in u modulo u^(order+1), coefficients in Q[t]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        _nonnegative_int(order, "truncation order")
        cs = [_as_poly(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        cs += [ZERO] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def coefficient(self, n):
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient u^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _match(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("series operand expected")
        if self.order != other.order:
            raise ValueError("truncation order mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        self._match(other)
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._match(other)
        return TruncSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            p = _as_poly(other)
            return TruncSeries(self.order, [c * p for c in self.coeffs])
        self._match(other)
        n = self.order
        a, b = _nonzero(self.coeffs), _nonzero(other.coeffs)
        if len(a) > len(b):  # the outer loop runs over the sparser factor
            a, b = b, a
        out = [ZERO] * (n + 1)
        for i, x in a:
            for j, y in b:
                if i + j > n:
                    break
                out[i + j] = out[i + j] + x * y
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def __truediv__(self, d):
        """Division by a nonzero scalar, or by a series whose constant
        coefficient d0 divides each step: coefficient k of the quotient is
        (s_k − Σ_{i≥1} d_i q_{k−i}) / d0, the sum over the nonzero d_i only
        and the division a divexact in Q[t], which raises ArithmeticError when
        d0 leaves a remainder.  Int coefficients that d or d0 divides stay ints."""
        if not isinstance(d, TruncSeries):
            return TruncSeries(self.order, [c / d for c in self.coeffs])
        self._match(d)
        d0 = d.coeffs[0]
        if not d0:
            raise ValueError("series division needs a nonzero constant coefficient")
        tail = _nonzero(d.coeffs)[1:]
        out = []
        for k, acc in enumerate(self.coeffs):
            for i, c in tail:
                if i > k:
                    break
                acc = acc - c * out[k - i]
            out.append(divexact(acc, d0))
        return TruncSeries(self.order, out)

    def sqrt(self):
        """Principal square root; requires constant coefficient exactly 1.

        r = √p solves 2·p·r′ = p′·r, so with p_0 = 1 coefficient k of r is
        r_k = Σ_{i≥1} (3i − 2k)·p_i·r_{k−i} / (2k), the sum over the nonzero
        p_i only: a radicand with m terms costs m − 1 products per
        coefficient.  The division by 2k keeps the ints it divides ints."""
        if self.coeffs[0] != ONE:
            raise ValueError("series sqrt needs constant coefficient 1")
        tail = _nonzero(self.coeffs)[1:]
        out = [ONE]
        for k in range(1, self.order + 1):
            acc = ZERO
            for i, p in tail:
                if i > k:
                    break
                acc = acc + p * (3 * i - 2 * k) * out[k - i]
            out.append(acc / (2 * k))
        return TruncSeries(self.order, out)

    def integerized(self):
        """Validate that every coefficient is an integer polynomial."""
        return TruncSeries(self.order, [c.integerized() for c in self.coeffs])

    def __repr__(self):
        parts = [f"({c!r})*u^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return f"TruncSeries(order={self.order}: " + " + ".join(parts or ["0"]) + ")"


def _series(order, *coeffs):
    """The series c0 + c1 u + c2 u^2 + ..., truncated at the order."""
    return TruncSeries(order, coeffs[:order + 1])


def _over(numer, a, b, radicand, rad, order):
    """numer / (a + b·rad) to the given order, where rad = √radicand and
    numer, a, b and the radicand are polynomials in u, all four given, like
    rad, as series to a higher order.

    Through the conjugate the quotient is numer·(a − b·rad) / q with the
    polynomial q = a² − b²·radicand, since rad² = radicand.  With q = u^v·q̃
    and q̃(0) ≠ 0, the numerator's first v coefficients vanish; shifted down
    by v, it is divided by q̃ in one pass."""
    q = (a * a - b * b * radicand).coeffs
    v = next((k for k, c in enumerate(q) if c), len(q))
    if v > rad.order - order:
        raise ArithmeticError(f"conjugate denominator divisible by u^{v}, beyond the expansion")
    top = (numer * (a - b * rad)).coeffs
    if any(top[:v]):
        raise ArithmeticError(f"conjugate numerator not divisible by u^{v}")
    return _series(order, *top[v:]) / _series(order, *q[v:])


def gf_expand(which, order):
    """Expand one of the six closed-form generating functions to the given
    truncation order; every coefficient comes out an integer polynomial.

    Each formula is written in u as printed, as a sum of quotients
    N / (A + B·rad) taken by _over; both radicals have integer coefficients,
    and so does every quotient."""
    _nonnegative_int(order, "order")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if which not in GF_NAMES:
        raise ValueError(f"unknown generating function {which!r}; expected one of {GF_NAMES}")
    n = order
    t = Poly([0, 1])
    one = _series(n, 1)

    def poly(*coeffs):  # a polynomial in u, to the order rad is expanded to
        return _series(n + _SHIFT, *coeffs)

    def over(numer, a, b):
        return _over(numer, a, b, radicand, rad, n)

    if which.startswith("kl"):
        # (u-1)^2 - 4 t u^2 = 1 - 2u + (1-4t) u^2
        radicand = poly(1, -2, Poly([1, -4]))
        rad = radicand.sqrt()
        if which == "kl_fan":
            # 1 + 2u / (1 - u + rad)
            result = one + over(poly(0, 2), poly(1, -1), poly(1))
        elif which == "kl_wheel":
            # (2u - 2) / (1 - u + rad) - (2u^2 + 2u - 2) / ((u+1)(u + 1 + rad))
            # + 2u / ((u+1) rad)
            u_plus_1 = poly(1, 1)
            term1 = over(poly(-2, 2), poly(1, -1), poly(1))
            term2 = over(poly(-2, 2, 2), u_plus_1 * u_plus_1, u_plus_1)
            term3 = over(poly(0, 2), poly(0), u_plus_1)
            result = term1 - term2 + term3
        else:  # kl_whirl
            # (u+1) / (2 (tu+1) rad) - 1 / (2 (tu+1)): the odd constant of
            # u+1 cannot be halved, so the 1/2 is taken off the difference
            tu_plus_1 = poly(1, t)
            result = (over(poly(1, 1), poly(0), tu_plus_1) - over(poly(1), tu_plus_1, poly(0))) / 2
    else:
        # (1-(t+1)u)^2 - 4 t u^2 = 1 - 2(t+1)u + (t-1)^2 u^2
        radicand = poly(1, Poly([-2, -2]), Poly([1, -2, 1]))
        rad = radicand.sqrt()
        if which == "z_fan":
            # 2 / (1 - (t+1)u + rad)
            result = over(poly(2), poly(1, Poly([-1, -1])), poly(1))
        elif which == "z_wheel":
            # 1/rad - 1 - 2u (1-(t+1)u) (t+1+tu) / (1 - (t+1)u - 2t u^2 + rad)
            numer = poly(0, 2) * poly(1, Poly([-1, -1])) * poly(Poly([1, 1]), t)
            denom = poly(1, Poly([-1, -1]), Poly([0, -2]))
            result = over(poly(1), poly(0), poly(1)) - one - over(numer, denom, poly(1))
        else:  # z_whirl
            # 1/rad - 1
            result = over(poly(1), poly(0), poly(1)) - one
    return result.integerized()
