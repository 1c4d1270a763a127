"""Truncated formal power series in u with exact polynomial-in-t coefficients.

All operations are exact up to the fixed truncation order; nothing silently
extends precision.  The generating functions for the KL and Z polynomials of
the fan/wheel/whirl families are assembled from inverse and square root alone,
with the principal branch (constant term +1) for every radical.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ONE, ZERO, Poly

MAX_ORDER = 64

GF_NAMES = ("kl_fan", "kl_wheel", "kl_whirl", "z_fan", "z_wheel", "z_whirl")


def _as_poly(c):
    if isinstance(c, Poly):
        return c
    if isinstance(c, (int, Fraction)):
        return Poly([c])
    raise TypeError(f"polynomial coefficient expected, got {type(c).__name__}")


class TruncSeries:
    """Power series in u modulo u^(order+1), coefficients in Q[t]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise ValueError("order must be nonnegative")
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
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the constant coefficient must be a nonzero
        rational (a unit of Q[t][[u]])."""
        c0 = self.coeffs[0]
        if c0.degree != 0:
            raise ValueError("series inverse needs a nonzero constant (degree-0) leading coefficient")
        inv0 = Fraction(1, 1) / Fraction(c0.coeff(0))
        out = [Poly([inv0])]
        for k in range(1, self.order + 1):
            acc = ZERO
            for i in range(1, k + 1):
                a = self.coeffs[i]
                if not a.is_zero():
                    acc = acc + a * out[k - i]
            out.append(acc * -inv0)
        return TruncSeries(self.order, out)

    def sqrt(self):
        """Principal square root; requires constant coefficient exactly 1."""
        if self.coeffs[0] != ONE:
            raise ValueError("series sqrt needs constant coefficient 1")
        half = Fraction(1, 2)
        out = [ONE]
        for k in range(1, self.order + 1):
            acc = self.coeffs[k]
            for i in range(1, k):
                acc = acc - out[i] * out[k - i]
            out.append(acc * half)
        return TruncSeries(self.order, out)

    def integerized(self):
        """Validate that every coefficient is an integer polynomial."""
        return TruncSeries(self.order, [c.integerized() for c in self.coeffs])

    def __repr__(self):
        parts = [f"({c!r})*u^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return f"TruncSeries(order={self.order}: " + " + ".join(parts or ["0"]) + ")"


def _series(order, *coeffs):
    return TruncSeries(order, coeffs)


def gf_expand(which, order):
    """Expand one of the six closed-form generating functions to the given
    truncation order; every coefficient comes out an integer polynomial."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if which not in GF_NAMES:
        raise ValueError(f"unknown generating function {which!r}; expected one of {GF_NAMES}")
    n = order
    t = Poly([0, 1])
    one = _series(n, 1)
    u = _series(n, 0, 1)

    if which.startswith("kl"):
        # sqrt((u-1)^2 - 4 t u^2) = sqrt(1 - 2u + (1-4t) u^2)
        rad = _series(n, 1, -2, Poly([1, -4])).sqrt()
        if which == "kl_fan":
            result = one + _series(n, 0, 2) * (one - u + rad).inverse()
        elif which == "kl_wheel":
            u_plus_1 = _series(n, 1, 1)
            term1 = _series(n, -2, 2) * (rad - u + one).inverse()
            term2 = _series(n, -2, 2, 2) * (u_plus_1 * (rad + u + one)).inverse()
            term3 = _series(n, 0, 2) * (u_plus_1 * rad).inverse()
            result = term1 - term2 + term3
        else:  # kl_whirl
            tu_plus_1 = _series(n, 1, t)
            result = _series(n, 1, 1) * (_series(n, 2) * tu_plus_1 * rad).inverse() - (
                _series(n, 2) * tu_plus_1
            ).inverse()
    else:
        # sqrt((1-(t+1)u)^2 - 4 t u^2) = sqrt(1 - 2(t+1)u + (t-1)^2 u^2)
        rad = _series(n, 1, Poly([-2, -2]), Poly([1, -2, 1])).sqrt()
        if which == "z_fan":
            result = _series(n, 2) * (rad - _series(n, 0, Poly([1, 1])) + one).inverse()
        elif which == "z_wheel":
            numer = _series(n, 0, 2) * _series(n, 1, Poly([-1, -1])) * _series(n, Poly([1, 1]), t)
            denom = _series(n, 1, Poly([-1, -1]), Poly([0, -2])) + rad
            result = rad.inverse() - one - numer * denom.inverse()
        else:  # z_whirl
            result = rad.inverse() - one
    return result.integerized()
