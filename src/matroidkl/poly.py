"""Dense univariate polynomials with exact integer or rational coefficients.

Coefficients are stored ascending by degree with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  Integer values stay Python ints,
everything else is a fractions.Fraction, so all arithmetic is exact and
arbitrary precision.  The degree of the zero polynomial is float("-inf"),
not -1, so that deg(a*b) = deg(a) + deg(b) holds when a factor is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

NEG_INF = float("-inf")


def _add_product(acc, x, y, scale=1):
    """acc + scale·x·y for ascending coefficient lists, in place: acc is
    extended to fit and returned."""
    acc.extend([0] * (len(x) + len(y) - 1 - len(acc)))
    for i, c in enumerate(x):
        if c:
            c *= scale
            for k, d in enumerate(y, i):
                acc[k] += c * d
    return acc


def _divexact(a, b):
    """a / b for ascending coefficient lists, b's last entry nonzero; raises
    ArithmeticError when b leaves a remainder.  Term by term from the top: a
    quotient term that b's leading coefficient divides stays an int, and by a
    constant b, all stay ints if it divides each."""
    if len(b) == 1:
        d = b[0]
        if any([c % d for c in a]):
            return [Fraction(c, d) for c in a]
        return [c // d for c in a]
    r = list(a)
    q = [0] * (len(r) - len(b) + 1)
    for i in reversed(range(len(q))):
        c, rem = divmod(r[i + len(b) - 1], b[-1])
        if rem:
            c = Fraction(r[i + len(b) - 1], b[-1])
        q[i] = c
        if c:
            for j, d in enumerate(b, i):
                r[j] -= c * d
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _norm_coeff(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def _nonnegative_int(n, what):
    """n if it is a nonnegative int; a bool is refused like any other type."""
    if type(n) is not int:
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    return n


class Poly:
    """Immutable dense polynomial in one variable t over Z or Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not set(map(type, cs)) <= {int}:  # plain ints need no normalizing
            cs = [_norm_coeff(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def integerized(self):
        """Return self, whose coefficients are ints, or raise if any is
        non-integral.  Every route builds int or Fraction coefficients and
        __init__ refuses bools, so a type test decides."""
        for c in self.coeffs:
            if type(c) is not int:
                raise ArithmeticError(f"non-integer coefficient {c}")
        return self

    def derivative(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, bool):  # not a coefficient, so unequal, not an error
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        # a constant hashes like its scalar, since it compares equal to it
        cs = self.coeffs
        if len(cs) <= 1:
            return hash(cs[0] if cs else 0)
        return hash(cs)

    def __add__(self, other):
        # Poly first: a Poly operand then skips Fraction's ABC instance check
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, c in enumerate(b):
                out[i] -= c
        else:
            out = [-c for c in b]
            for i, c in enumerate(a):
                out[i] += c
        return Poly(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, d):
        """Division by a nonzero scalar; ints that d divides stay ints."""
        if not isinstance(d, (int, Fraction)):
            return NotImplemented
        return Poly(_divexact(self.coeffs, [d]))

    def __pow__(self, n):
        _nonnegative_int(n, "power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return "Poly(" + " + ".join(parts) + ")"


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


def _stripped(cs, sign=1):
    """The int list cs, trailing zeros popped, over sign * its content."""
    while cs and not cs[-1]:
        cs.pop()
    g = sign * gcd(*cs)
    return [c // g for c in cs] if cs else cs


def remainder_sequence(a, b):
    """Signed remainder sequence a, b, -rem(a, b), ... down to the last
    nonzero term, gcd(a, b); a zero b ends it at a.  Denominators are cleared
    once, on entry.  Each step pseudo-divides int lists term by term from the
    top: for each quotient term it scales the remainder by |lc(b)| once and
    subtracts sign(lc(b)) * top * t^i * b, so every quotient term is an int.
    Content stripping, which keeps every sign, then removes the power of
    |lc(b)| and stops the coefficients swelling."""
    den = lcm(*(c.denominator for c in a.coeffs + b.coeffs))
    a, b = (_stripped([c.numerator * (den // c.denominator) for c in x.coeffs]) for x in (a, b))
    seq = [a]
    while b:
        r, scale, sign = list(seq[-1]), abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
        seq.append(b)
        for i in range(len(r) - len(b), -1, -1):
            top = sign * r.pop()
            if top:
                r[:i] = [scale * c for c in r[:i]]
                r[i:] = [scale * c - top * bj for c, bj in zip(r[i:], b)]
        b = _stripped(r, -1)
    return [Poly(cs) for cs in seq]
