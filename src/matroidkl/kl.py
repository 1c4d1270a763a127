"""Kazhdan-Lusztig and Z-polynomials of matroids.

kl_z_chi solves every upper interval [F, top] of the lattice of flats in one
pass from the top rank down.  By Proudfoot-Xu-Young, P_M is the unique
polynomial with constant term 1 and deg P_M < rk M / 2 that makes
    Z_M(t) = sum over flats F of t^(rk F) * P_{M^F}(t)
palindromic; the interval [F, top] is the flat lattice of the simplified
contraction M^F, so the pass never rebuilds rank oracles.  Every flat above
F of one rank and one P adds the same term, so the pass counts the flats
above F in each such class with one popcount of the lattice's bitsets and
lists no comparable pair.  The result is certified against the defining
recursion of Elias-Proudfoot-Wakefield,
    t^(rk M) * P_M(1/t) = sum over flats F of chi_{M_F}(t) * P_{M^F}(t),
at the bottom flat, summed as sum over flats G of mu(bottom, G) * Z_{M^G}(t),
which yields chi_M as well.

The module also evaluates the closed forms, the P-recursive recurrences and
the Hadamard coefficient factorization for the fan / square-of-path / wheel /
whirl families.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import T, Poly, _add_product, _divexact
from . import graphs as _graphs
from . import matroids as _matroids
from .matroids import lattice_of

FAMILIES = ("fan", "square", "wheel", "whirl")


# ---------------------------------------------------------------------------
# the KL/Z pass over the lattice of flats (matroids.lattice_of)


def _flat_pass(lat):
    """Solve every upper interval [F, top], from the top flat down: yields P
    and Z of each as ascending coefficients, a tuple for P and a list for Z.

    For a flat A of corank r, R_A = sum over F > A of t^(rk F - rk A) * P_F
    is Z_A - P_A.  Z_A is palindromic of degree r and deg P_A < r/2, so the
    high coefficients of Z_A come from R_A alone and mirror onto the low
    ones: p_k = [t^(r-k)]R_A - [t^k]R_A for k < r/2.  The flats solved so far
    are kept in one bitset per class (rank s, P), so R_A takes one popcount
    per class above A's rank: |containing(A) & class| copies of P at
    t^(s - rk A).
    """
    flats = lat.flats
    top = flats[-1].rank
    classes = {}  # (rank s, P) -> bitset of the flats solved so far in that class
    rank, above = top, ()
    for a in reversed(range(len(flats))):
        if flats[a].rank != rank:
            # flats of one rank are incomparable: each rank reads the
            # classes of the ranks above it, all complete
            rank = flats[a].rank
            above = [(list(enumerate(p, s - rank)), bits) for (s, p), bits in classes.items()]
        r = top - rank
        z = [0] * (r + 1)
        containing = lat.containing(a)
        for terms, bits in above:
            count = (containing & bits).bit_count()
            if count:
                for k, c in terms:
                    z[k] += count * c
        # built from a list: tuple() of a generator allocates a larger tuple
        # and shrinks it, which leaves one block per flat on the free lists
        p = tuple([z[r - k] - z[k] for k in range((r + 1) // 2)]) if r else (1,)
        # constant term 1 is forced; nonnegativity is the theorem of
        # Braden-Huh-Matherne-Proudfoot-Wang
        if p[0] != 1 or min(p) < 0:
            raise ArithmeticError(
                f"KL polynomial {list(p)} of a rank-{r} interval must have constant "
                f"term 1 and nonnegative coefficients"
            )
        for k, c in enumerate(p):
            z[k] += c
        classes[rank, p] = classes.get((rank, p), 0) | 1 << a
        yield p, z


def _check_bottom(lat, solved):
    """Certify the (P, Z) of every flat, from the top down as _flat_pass
    yields them, by the defining recursion at the bottom flat,
    sum over flats F of chi_{[bottom, F]}(t) * P_F(t) == t^r * P_M(1/t),
    regrouped by the flat G where each term of chi's Moebius sum starts:
    sum over flats G of mu(bottom, G) * Z_G(t) == t^r * P_M(1/t), where Z_G
    is the Z of [G, top].  Each Z is dropped once added.  Returns P_M, Z_M
    and the characteristic polynomial, chi_M = sum over G of
    mu(bottom, G) * t^(r - rk G)."""
    r = lat.flats[-1].rank
    total, chi = [0] * (r + 1), [0] * (r + 1)
    for f, mu, (p, z) in zip(reversed(lat.flats), reversed(lat.mobius()), solved):
        chi[r - f.rank] += mu
        for k, c in enumerate(z):
            total[k] += mu * c
    # the last flat solved is the bottom, whose interval is the whole
    # matroid; the right side is t^r * P_M(1/t) as a coefficient list
    if total != [0] * (r + 1 - len(p)) + list(reversed(p)):
        raise ArithmeticError(
            "defining recursion fails at the bottom flat; rank oracle or lattice bug"
        )
    return Poly(p), Poly(z), Poly(chi)


def kl_z_chi(matroid):
    """(P, Z, chi) of a loopless matroid from one lattice and one certified pass."""
    lat = lattice_of(matroid)
    return _check_bottom(lat, _flat_pass(lat))


def kl_poly(matroid):
    """KL polynomial of a loopless matroid."""
    return kl_z_chi(matroid)[0]


def z_poly(matroid):
    """Z-polynomial: sum over flats F of t^(rk F) * P_{M^F}(t)."""
    return kl_z_chi(matroid)[1]


# ---------------------------------------------------------------------------
# closed forms


# FIRST_N[name][family]: the first n at which the closed form or recurrence
# `name` holds, for each family it covers; the one copy of these domains.
FIRST_N = {
    "kl_closed": {"fan": 1, "square": 1, "wheel": 2, "whirl": 3},
    "z_closed": {"fan": 1, "square": 1, "wheel": 2, "whirl": 1},
    "kl_recurrence": {"fan": 0, "wheel": 2, "whirl": 1},
    "chromatic_closed": {"fan": 1, "wheel": 3},
    "characteristic_closed": {"fan": 1, "square": 1, "wheel": 3, "whirl": 3},
}


def _first_n(name, family, n):
    """FIRST_N[name][family]; raises TypeError unless n is an int, and
    ValueError unless name covers family and n is at least that first n."""
    if type(n) is not int:
        raise TypeError(f"{name} needs an int n, got {type(n).__name__}")
    first = FIRST_N[name].get(family)
    if first is None:
        raise ValueError(f"{name} covers the families {tuple(FIRST_N[name])}, not {family!r}")
    if n < first:
        raise ValueError(f"{family} {name} needs n >= {first}")
    return first


def _exact(num, den):
    """num / den for ints; raises ArithmeticError when den does not divide num."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"term {num}/{den} is not an integer")
    return q


def kl_closed(family, n):
    """Closed-form KL polynomial from n = FIRST_N["kl_closed"][family] on.

    The wheel formula is established for n >= 3; n=2 is an informational
    extension that evaluates to 1, the 3-cycle value.  The multinomials
    (n-1; k, k, n-2k-1) and (n; k, k+1, n-2k-1) are read as products of two
    binomials, h_k = C(n-1, 2k) C(2k, k) and, for the wheel,
    h_k = C(n, 2k+1) C(2k+1, k), each stepped from the last by its term
    ratio (n-2k+1)(n-2k) / k^2, or / k(k+1) for the wheel.  Every step and
    every weight is an exact division.
    """
    _first_n("kl_closed", family, n)
    wheel = family == "wheel"
    h, terms = n if wheel else 1, []
    for k in range((n - 1) // 2 + 1):
        if k:
            h, r = divmod(h * (n - 2 * k + 1) * (n - 2 * k), k * (k + 1 if wheel else k))
            if r:
                break
        if family in ("fan", "square"):
            num, den = h, k + 1
        elif family == "whirl":
            num, den = n * h, n - k
        else:
            # the printed weight (k+1)/(n-k) + k/(n-k+1) - k/(n-k-1), over
            # its common denominator (n-k)(n-k+1)(n-k-1)
            a, b, c = n - k, n - k + 1, n - k - 1
            num, den = ((k + 1) * b * c + k * a * c - k * a * b) * h, a * b * c
        q, r = divmod(num, den)
        if r:
            break
        terms.append(q)
    else:
        return Poly(terms)
    raise ArithmeticError(f"{family} kl_closed({n}): inexact division at k = {k}")


def z_closed(family, n):
    """Closed-form Z-polynomial from n = FIRST_N["z_closed"][family] on; the
    fan's is the Narayana polynomial of index n + 1."""
    # the fan's terms are C(m, k+1) C(m, k) / m with m = n + 1, the wheel's
    # C(m, k)^2 - 2 C(m, k+1) C(m, k-1) / m with m = n, and the whirl's
    # C(n, k)^2; the binomials step by (m - k) / (k + 1), and each division
    # by m is an exact division
    _first_n("z_closed", family, n)
    fan = family in ("fan", "square")
    m = n + 1 if fan else n
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    if family == "whirl":
        return Poly([c * c for c in row])
    row.append(0)  # C(m, m+1), and C(m, -1) at index -1
    terms = []
    for k in range(n + 1):
        q, r = divmod(row[k + 1] * row[k] if fan else 2 * row[k + 1] * row[k - 1], m)
        if r:
            raise ArithmeticError(f"{family} z_closed({n}): inexact division at k = {k}")
        terms.append(q if fan else row[k] * row[k] - q)
    return Poly(terms)


# ---------------------------------------------------------------------------
# P-recursive recurrences as data: with k = len(terms), prod(lead) * a[n+k] =
# sum over j = 1..k of prod(terms[j-1]) * a[n+k-j].  Each factor lists, per
# power of t, the integer coefficients of a polynomial in the recurrence index
# n (ascending).  See tests for the frozen transcription digests.

_RECURRENCES = {
    "fan": {
        "seeds": ((1,), (1,)),
        # (n+3) a[n+2] = (2n+3) a[n+1] + n(4t-1) a[n]
        "lead": (((3, 1),),),
        "terms": ((((3, 2),),), (((0, -1), (0, 4)),)),
    },
    "wheel": {
        # a[m] = P of the wheel on m+2 rim vertices
        "seeds": ((1,), (1, 1), (1, 5)),
        # (7+n) * B(n,t) * a[n+3] =
        #     (3+n) t (4t-1) C(n,t) a[n] + D(n,t) a[n+1] - A(n,t) a[n+2]
        "lead": (((7, 1),), ((6,), (-150, -85, -21, -2), (12, 22, 12, 2))),  # B
        "terms": (
            (((-1,),), (  # A
                (-60, -12),
                (1758, 1372, 446, 68, 4),
                (-738, -881, -426, -85, -6),
                (84, 166, 106, 26, 2),
            )),
            ((  # D
                (-18, -6),
                (906, 693, 214, 33, 2),
                (-4956, -4198, -1408, -224, -14),
                (264, 952, 618, 146, 12),
            ),),
            (((3, 1),), ((0,), (-1,), (4,)),
             ((6,), (-258, -133, -27, -2), (48, 52, 18, 2))),  # C
        ),
    },
    "whirl": {
        # a[m] = P of the whirl of order m+1
        "seeds": ((1,), (1,), (1, 3)),
        # (4+n) * (-5-2n+(4+2n)t) * a[n+3] =
        #     (2+n) t (4t-1) (-7-2n+(6+2n)t) a[n] + D(n,t) a[n+1] - E(n,t) a[n+2]
        "lead": (((4, 1),), ((-5, -2), (4, 2))),
        "terms": (
            (((-1,),), ((34, 24, 4), (-46, -35, -6), (16, 12, 2))),  # E
            (((14, 11, 2), (-102, -78, -14), (74, 62, 12)),),  # D
            (((2, 1),), ((0,), (-1,), (4,)), ((-7, -2), (6, 2))),
        ),
    },
}


# a product of factors expanded once: row i lists the ascending coefficients,
# as a polynomial in n, of its t^i coefficient; tuples, like the table, so the
# import leaves no list slack behind
def _expanded(factors):
    out = [[1]]
    for factor in factors:
        prod = [[] for _ in range(len(out) + len(factor) - 1)]
        for i, x in enumerate(out):
            for j, y in enumerate(factor, i):
                _add_product(prod[j], x, y)
        out = prod
    return tuple(map(tuple, out))


# a recurrence's lead and terms as rows, which each step evaluates at its n
def _step_rows(rec):
    return _expanded(rec["lead"]), tuple(map(_expanded, rec["terms"]))


_ROWS = {family: _step_rows(rec) for family, rec in _RECURRENCES.items()}


# rows evaluated at n by Horner: the product's ascending int coefficients in t
def _at(rows, n):
    out = []
    for row in rows:
        v = 0
        for c in reversed(row):
            v = v * n + c
        out.append(v)
    return out


_rec_cache = {family: [] for family in _RECURRENCES}


def _rec_sequence(family, length):
    """The recurrence-defined sequence a[0], a[1], ..., stepped until it has at
    least `length` entries: the cache itself, not a copy, so callers only read
    it.

    Each step sums prod(terms[j-1]) * a[m-j] into one int list and divides it
    exactly by prod(lead); a remainder, or a quotient coefficient that is not
    an int, is inexact."""
    lead_rows, term_rows = _ROWS[family]
    cache = _rec_cache[family]
    if not cache:
        cache.extend(Poly(s) for s in _RECURRENCES[family]["seeds"])
    while len(cache) < length:
        m = len(cache)
        n = m - len(term_rows)
        num = []
        for j, rows in enumerate(term_rows, 1):
            _add_product(num, _at(rows, n), cache[m - j].coeffs)
        try:
            cache.append(Poly(_divexact(num, _at(lead_rows, n))).integerized())
        except ArithmeticError:
            raise ArithmeticError(f"{family} recurrence step {m}: inexact division "
                                  f"(transcription error)") from None
    return cache


def kl_recurrence(family, n):
    """Evaluate the printed P-recursive recurrences with their printed seeds.

    Each sequence starts at its family's first n, so a[n - first] is P of
    order n: fan n>=0 gives P of the fan on n path vertices; wheel n>=2;
    whirl n>=1.
    """
    first = _first_n("kl_recurrence", family, n)
    return _rec_sequence(family, n - first + 1)[n - first]


def hadamard_wheel_coeff(n, k):
    """Three-sequence factorization of the wheel KL coefficients:
    a_k * b_k * c_k equals the t^k coefficient of the wheel polynomial.  a_k
    and c_k (a Lucas polynomial coefficient) are ints, b_k a Fraction."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError("k out of range")
    a = (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + (k**3 + 3 * k**2 - k - 1)
    b = Fraction(factorial(n), (n - 1) * factorial(k + 1) * factorial(n + 1 - k))
    c = _exact((n - 1) * factorial(n - 2 - k), factorial(k) * factorial(n - 1 - 2 * k))
    return a, b, c


def chromatic_closed(family, n):
    """Closed-form chromatic polynomial of the fan or wheel graph: t times the
    characteristic polynomial of its cycle matroid, as both are connected."""
    _first_n("chromatic_closed", family, n)
    return T * characteristic_closed(family, n)


def characteristic_closed(family, n):
    """Closed-form characteristic polynomial of the family matroid."""
    _first_n("characteristic_closed", family, n)
    if family in ("fan", "square"):
        return Poly([-1, 1]) * Poly([-2, 1]) ** (n - 1)
    if family == "wheel":
        return Poly([-2, 1]) ** n - (-1) ** (n - 1) * Poly([-2, 1])
    return Poly([-2, 1]) ** n - Poly([(-1) ** n])


# ---------------------------------------------------------------------------
# family-level entry points


def family_graph(family, n):
    if family == "whirl":
        raise ValueError("the whirl is not a graph")
    name = {"fan": "fan", "square": "square_of_path", "wheel": "wheel"}.get(family)
    if name is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _graphs.make_family(name, n)


def family_matroid(family, n):
    if family == "whirl":
        return _matroids.whirl_matroid(n)
    return _matroids.graphic_matroid(family_graph(family, n))
