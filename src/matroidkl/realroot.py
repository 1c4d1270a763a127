"""Exact root-location certificates via Sturm sequences.

Every verdict (real-rootedness, negativity, the n-sequence criterion and
interlacing) reads the sign variations of one remainder sequence at -inf, 0
and +inf, and takes no gcd and isolates no root.  Zero entries are skipped,
so V(-inf) - V(x) counts the distinct real roots <= x of p, for any x with
p(x) != 0.  The signs at -inf and +inf come from the leading coefficients
and the degree parities, the signs at 0 from the constant coefficients.
A palindromic p, such as every Z-polynomial, is read at half its degree, in
s = t + 1/t, at s = -2 and 2 as well.  Its roots t = -1 and 1 are divided
out first (1+t always divides at odd degree), so none lies at s = -2 or 2.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from math import comb, factorial
from operator import ne

from .poly import Poly, _add_product, remainder_sequence
from . import kl as _kl


# distinct_roots counts distinct complex roots: deg p - deg gcd(p, p')
SturmChain = namedtuple("SturmChain", "polys distinct_roots")


def sturm_chain(p):
    """The signed remainder sequence of (p, p').  Its last term g = gcd(p, p')
    divides every term, so at +-inf, and at every x with p(x) != 0, its sign
    counts are those of the chain of the squarefree part p/g."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    seq = remainder_sequence(p, p.derivative())
    return SturmChain(tuple(seq), p.degree - seq[-1].degree)


def _variations(values):
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def _sign_variations(polys, *points):
    """(V(-inf), V(x) for each x in points, V(+inf)) of a sequence of nonzero
    polynomials; at x = 0 the values are the constant coefficients."""
    lead = [c.coeffs[-1] for c in polys]
    return (_variations([v if len(c.coeffs) % 2 else -v for v, c in zip(lead, polys)]),
            *(_variations([c(x) if x else c.coeffs[0] for c in polys]) for x in points),
            _variations(lead))


def _root_flags(p):
    """(real-rooted, all zeros negative) off one Sturm chain: of p, or of q
    for a palindromic p of degree >= 2.  Such a p, its roots t = -1 and 1
    divided out by synthetic division in ints, is t^m * q(t + 1/t) with
    q(s) = c_m + sum_j c_(m+j) * D_j(s) in the Dickson polynomials D_0 = 2,
    D_1 = s, D_(j+1) = s*D_j - D_(j-1).  A root s of q gives the roots of
    t^2 - s*t + 1, real iff |s| >= 2 and negative iff s <= -2.  With t = -1
    and 1 gone, q(-2) and q(2) are nonzero, so V(-2) and V(2) count."""
    cs = list(p.coeffs)
    if len(cs) < 3 or cs != cs[::-1]:
        chain = sturm_chain(p)
        v_neg, v_zero, v_pos = _sign_variations(chain.polys, 0)
        real = v_neg - v_pos == chain.distinct_roots
        return real, real and cs[0] != 0 and v_neg - v_zero == chain.distinct_roots
    for r in (-1, 1):
        while not sum(cs[::2]) + r * sum(cs[1::2]):
            for k in range(len(cs) - 2, 0, -1):
                cs[k] += r * cs[k + 1]
            cs = cs[1:]
    m = len(cs) // 2
    q, d_prev, d = [cs[m]], [2], [0, 1]
    for c in cs[m + 1:]:
        q = [a + c * b for a, b in zip_longest(q, d, fillvalue=0)]
        d_prev, d = d, [a - b for a, b in zip_longest([0, *d], d_prev, fillvalue=0)]
    chain = sturm_chain(Poly(q))
    v_neg, v_low, v_high, v_pos = _sign_variations(chain.polys, -2, 2)
    # real: no root of q in (-2, 2); negative: besides, none above 2 and p(1) != 0
    real = v_neg - v_pos == chain.distinct_roots and v_low == v_high
    return real, real and sum(p.coeffs) != 0 and v_neg - v_low == chain.distinct_roots


def is_real_rooted(p):
    """True when every zero of p (counted with multiplicity) is real: every
    distinct root is real."""
    return _root_flags(p)[0]


def all_zeros_negative(p):
    """True when all deg(p) zeros, counted with multiplicity, lie in
    (-inf, 0): p(0) != 0 and every distinct root is real and <= 0."""
    return _root_flags(p)[1]


def interleaves(g, f):
    """Exact check that g is an interleaver of f (weak inequalities, shared
    roots allowed); requires real-rooted inputs with positive leading
    coefficients and deg f - deg g in {0, 1}.

    Interlacing holds iff 0 <= N_f(x) - N_g(x) <= 1 for every x, where N
    counts roots >= x with multiplicity.  Dividing out h = gcd(f, g) leaves
    that difference unchanged, and for the coprime quotients f1, g1 it holds
    iff the Cauchy index of g1/f1 over the reals is +deg f1.  By Sylvester's
    theorem that index is V(-inf) - V(+inf) of the signed remainder sequence
    of (f1, g1), which is that of (f, g) divided by h, its last term."""
    for p in (f, g):
        if p.is_zero():
            raise ValueError("zero polynomial")
        if p.leading <= 0:
            raise ValueError("positive leading coefficient required")
        if not is_real_rooted(p):
            raise ValueError("interleaves requires real-rooted polynomials")
    if f.degree - g.degree not in (0, 1):
        raise ValueError("degree gap must be 0 or 1")
    seq = remainder_sequence(f, g)
    v_neg, v_pos = _sign_variations(seq)
    return v_neg - v_pos == f.degree - seq[-1].degree


def n_sequence_check(gamma, n):
    """Transformed-binomial criterion: admissible iff
    sum(gamma_k * C(n,k) * t^k) has only real zeros, all of one sign."""
    if len(gamma) != n + 1:
        raise ValueError("gamma must have length n+1")
    p = Poly([gamma[k] * comb(n, k) for k in range(n + 1)])
    chain = sturm_chain(p)
    v_neg, v_zero, v_pos = _sign_variations(chain.polys, 0)
    real = v_neg - v_pos
    if real != chain.distinct_roots or p.coeff(0) == 0:
        return False
    nonpos = v_neg - v_zero
    return nonpos == 0 or nonpos == real


def narayana_polynomial(n):
    """Classical Narayana polynomial."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return Poly([_kl._exact(comb(n, k) * comb(n, k + 1), n) for k in range(n)])


def _lucas_sequence(x0, x1, k):
    """x_k of x_{j+1} = t*x_j + x_{j-1}, seeded with x_0 and x_1 as int lists."""
    for _ in range(k):
        x0, x1 = x1, _add_product([0, *x1], [1], x0)
    return Poly(x0)


def lucas_polynomial(n):
    """Lucas polynomial by its defining recurrence, seeded with (2, t)."""
    if n < 0:
        raise ValueError("needs n >= 0")
    return _lucas_sequence([2], [0, 1], n)


def fibonacci_polynomial(n):
    """Fibonacci polynomial by its defining recurrence, seeded with (0, 1)."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return _lucas_sequence([], [1], n)


def verify_narayana_identity(n):
    """N_n(t) == (1+t)^(n-1) * P_fan(t/(1+t)^2), and the fan Z-polynomial one
    index down is that same Narayana polynomial."""
    if n < 1:
        raise ValueError("needs n >= 1")
    nara = narayana_polynomial(n)
    # c t^k in P_fan becomes c t^k (1+t)^(n-1-2k)
    substituted = sum((Poly([0] * k + [c]) * Poly([1, 1]) ** (n - 1 - 2 * k)
                       for k, c in enumerate(_kl.kl_closed("fan", n).coeffs)), Poly())
    if substituted != nara:
        return False
    if n >= 2 and _kl.z_closed("fan", n - 1) != nara:
        return False
    return True


def verify_lucas_fibonacci(n):
    """Coefficient identities mapping the wheel factorial sum onto the Lucas
    polynomial and the whirl binomial sum onto the Fibonacci polynomial, plus
    negativity of both image polynomials.  No fractional powers appear: the
    t^k coefficient corresponds to the x^(n-1-2k) coefficient."""
    if n < 3:
        raise ValueError("needs n >= 3")
    m = (n - 1) // 2
    f_n = Poly([_kl.hadamard_wheel_coeff(n, k)[2] for k in range(m + 1)])
    g_n = Poly([comb(n - k - 1, k) for k in range(m + 1)])
    for image, expected in ((f_n, lucas_polynomial(n - 1)), (g_n, fibonacci_polynomial(n))):
        spread = [0] * n
        for k in range(m + 1):
            spread[n - 1 - 2 * k] = image.coeff(k)
        if Poly(spread) != expected:
            return False
    return all_zeros_negative(f_n) and all_zeros_negative(g_n)


def verify_wheel_z_quadratic(n):
    """The binomial-weighted wheel Z core factors as
    n * ((n+1)t^2 + (n^2-n+4)t + (n+1)) * (1+t)^(n-2) with positive
    discriminant, and multiplied back by the multiplier-sequence weights it
    reproduces the wheel Z closed form."""
    if n < 3:
        raise ValueError("needs n >= 3")
    gammas = [(1 + k) * n**2 + (1 - 2 * k - k**2) * n + 2 * k**2 for k in range(n + 1)]
    h = Poly([gammas[k] * comb(n, k) for k in range(n + 1)])
    quad = Poly([n + 1, n**2 - n + 4, n + 1])
    if h != n * quad * Poly([1, 1]) ** (n - 2):
        return False
    disc = (n**2 - n + 4) ** 2 - 4 * (n + 1) ** 2
    if disc != (n - 1) * (n - 2) * (n**2 + n + 6) or disc <= 0:
        return False
    z = Poly([_kl._exact(gammas[k] * factorial(n - 1) * comb(n, k),
                         factorial(k + 1) * factorial(n + 1 - k)) for k in range(n + 1)])
    return z == _kl.z_closed("wheel", n)
