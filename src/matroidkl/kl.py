"""Kazhdan-Lusztig and Z-polynomials of matroids.

kl_poly and z_poly solve every upper interval [F, top] of the lattice of flats
in one pass from the top rank down.  By Proudfoot-Xu-Young, P_M is the unique
polynomial with constant term 1 and deg P_M < rk M / 2 that makes
    Z_M(t) = sum over flats F of t^(rk F) * P_{M^F}(t)
palindromic; the interval [F, top] is the flat lattice of the simplified
contraction M^F, so the pass never rebuilds rank oracles.  The result is
certified against the defining recursion of Elias-Proudfoot-Wakefield,
    t^(rk M) * P_M(1/t) = sum over flats F of chi_{M_F}(t) * P_{M^F}(t),
at the bottom flat.

The module also evaluates the closed forms, the P-recursive recurrences and
the Hadamard coefficient factorization for the fan / square-of-path / wheel /
whirl families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .poly import ONE, Poly, divexact, reverse_scaled
from . import graphs as _graphs
from . import matroids as _matroids

FAMILIES = ("fan", "square", "wheel", "whirl")


# ---------------------------------------------------------------------------
# flat-lattice engine


class FlatLattice:
    """A graded lattice given by rank list and below-relation bitsets.

    Index 0 is the bottom (rank 0), the last index the unique top, and indices
    are sorted by rank, so flat j <= flat i implies j <= i.  below[i] holds
    bit j exactly when flat j <= flat i (including j == i).
    """

    __slots__ = ("ranks", "below", "n", "top_rank")

    def __init__(self, ranks, below):
        self.ranks = tuple(ranks)
        self.below = tuple(below)
        self.n = len(self.ranks)
        self.top_rank = self.ranks[-1] if self.ranks else 0

    def upper_sets(self):
        """For each index i, the bitset of indices j with flat i <= flat j."""
        up = [0] * self.n
        for j in range(self.n):
            b = self.below[j]
            bit_j = 1 << j
            while b:
                i = (b & -b).bit_length() - 1
                b &= b - 1
                up[i] |= bit_j
        return up

    def mobius_from_bottom(self):
        """mu(bottom, F) for every flat F."""
        mu = [0] * self.n
        mu[0] = 1
        for i in range(1, self.n):
            acc = 0
            b = self.below[i] & ~(1 << i)
            while b:
                j = (b & -b).bit_length() - 1
                b &= b - 1
                acc += mu[j]
            mu[i] = -acc
        return mu


def lattice_of(matroid):
    """The flat lattice of a rank-oracle matroid, cached on the oracle."""
    if matroid._kl_lattice is None:
        flats = matroid.flats()
        n = len(flats)
        masks = [f.elements for f in flats]
        ranks = [f.rank for f in flats]
        below = []
        for i in range(n):
            mi = masks[i]
            b = 1 << i
            for j in range(i):
                if masks[j] & mi == masks[j]:
                    b |= 1 << j
            below.append(b)
        matroid._kl_lattice = FlatLattice(ranks, below)
    return matroid._kl_lattice


def _chi_from_bottom(lat):
    """Characteristic polynomial of every lower interval [bottom, F]."""
    mu = lat.mobius_from_bottom()
    chis = []
    for i in range(lat.n):
        ri = lat.ranks[i]
        coeffs = [0] * (ri + 1)
        b = lat.below[i]
        while b:
            j = (b & -b).bit_length() - 1
            b &= b - 1
            coeffs[ri - lat.ranks[j]] += mu[j]
        chis.append(Poly(coeffs))
    return chis


def _check_bottom(lat, ps):
    """Certify per-flat KL polynomials by the defining recursion at the bottom:
    sum over flats F of chi_{[bottom, F]}(t) * P_F(t) == t^r * P_M(1/t)."""
    total = Poly()
    for chi, p in zip(_chi_from_bottom(lat), ps):
        total = total + chi * p
    if total != reverse_scaled(ps[0], lat.top_rank):
        raise ArithmeticError(
            "defining recursion fails at the bottom flat; rank oracle or lattice bug"
        )


def _flat_pass(lat):
    """P and Z of every upper interval [F, top], indexed like the flats.

    For a flat A of corank r, R_A = sum over F > A of t^(rk F - rk A) * P_F
    is Z_A - P_A.  Z_A is palindromic of degree r and deg P_A < r/2, so the
    high coefficients of Z_A come from R_A alone and mirror onto the low
    ones: p_k = [t^(r-k)]R_A - [t^k]R_A for k < r/2.
    """
    ranks = lat.ranks
    up = lat.upper_sets()
    ps = [None] * lat.n
    zs = [None] * lat.n
    for a in reversed(range(lat.n)):
        r = lat.top_rank - ranks[a]
        z = [0] * (r + 1)
        b = up[a] & ~(1 << a)
        while b:
            f = (b & -b).bit_length() - 1
            b &= b - 1
            shift = ranks[f] - ranks[a]
            for k, c in enumerate(ps[f]):
                z[shift + k] += c
        p = [z[r - k] - z[k] for k in range((r + 1) // 2)] if r else [1]
        # constant term 1 is forced; nonnegativity is the theorem of
        # Braden-Huh-Matherne-Proudfoot-Wang
        if p[0] != 1 or min(p) < 0:
            raise ArithmeticError(
                f"KL polynomial {p} of a rank-{r} interval must have constant "
                f"term 1 and nonnegative coefficients"
            )
        for k, c in enumerate(p):
            z[k] += c
        ps[a], zs[a] = p, z
    ps = [Poly(p) for p in ps]
    _check_bottom(lat, ps)
    return ps, [Poly(z) for z in zs]


def kl_poly(matroid):
    """KL polynomial of a loopless matroid."""
    ps, _ = _flat_pass(lattice_of(matroid))
    return ps[0]


def z_poly(matroid):
    """Z-polynomial: sum over flats F of t^(rk F) * P_{M^F}(t)."""
    _, zs = _flat_pass(lattice_of(matroid))
    return zs[0]


# ---------------------------------------------------------------------------
# closed forms


def _multinomial(n, *parts):
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def _comb(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _family_key(family):
    if family == "square_of_path":
        return "square"
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


def kl_closed(family, n):
    """Closed-form KL polynomial: fan/square n>=1, wheel n>=2, whirl n>=3.

    The wheel formula is established for n >= 3; n=2 is an informational
    extension that evaluates to 1, the 3-cycle value.
    """
    family = _family_key(family)
    terms = []
    if family in ("fan", "square"):
        if n < 1:
            raise ValueError("fan/square closed form needs n >= 1")
        for k in range((n - 1) // 2 + 1):
            terms.append(Fraction(1, k + 1) * _multinomial(n - 1, k, k, n - 2 * k - 1))
    elif family == "wheel":
        if n < 2:
            raise ValueError("wheel closed form needs n >= 2")
        for k in range((n - 1) // 2 + 1):
            w = (
                Fraction(k + 1, n - k)
                + Fraction(k, n - k + 1)
                - Fraction(k, n - k - 1)
            )
            terms.append(w * _multinomial(n, k, k + 1, n - 2 * k - 1))
    else:  # whirl
        if n < 3:
            raise ValueError("whirl closed form needs n >= 3")
        for k in range((n - 1) // 2 + 1):
            terms.append(Fraction(n, n - k) * _multinomial(n - 1, k, k, n - 2 * k - 1))
    return Poly(terms).integerized()


def z_closed(family, n):
    """Closed-form Z-polynomial: fan n>=1 (Narayana), wheel n>=2, whirl n>=1."""
    family = _family_key(family)
    terms = []
    if family in ("fan", "square"):
        if n < 1:
            raise ValueError("fan/square Z closed form needs n >= 1")
        for k in range(n + 1):
            terms.append(Fraction(comb(n + 1, k + 1) * comb(n + 1, k), n + 1))
    elif family == "wheel":
        if n < 2:
            raise ValueError("wheel Z closed form needs n >= 2")
        for k in range(n + 1):
            terms.append(
                comb(n, k) ** 2 - Fraction(2 * _comb(n, k + 1) * _comb(n, k - 1), n)
            )
    else:  # whirl
        if n < 1:
            raise ValueError("whirl Z closed form needs n >= 1")
        for k in range(n + 1):
            terms.append(comb(n, k) ** 2)
    return Poly(terms).integerized()


# ---------------------------------------------------------------------------
# P-recursive recurrences, stored as data tables of coefficient polynomials:
# each entry lists, per power of t, the integer coefficients of a polynomial
# in the recurrence index n (ascending).  See tests for the frozen
# transcription digests.

_FAN_REC = {
    "seeds": ((1,), (1,)),
    # (n+3) a[n+2] = (2n+3) a[n+1] + n(4t-1) a[n]
    "lead": ((3, 1),),
    "rhs": {
        1: ((3, 2),),
        0: ((0, -1), (0, 4)),
    },
}

_WHEEL_REC = {
    # a[m] = P of the wheel on m+2 rim vertices
    "seeds": ((1,), (1, 1), (1, 5)),
    # (7+n) * B(n,t) * a[n+3] =
    #     (3+n) t (4t-1) C(n,t) a[n] + D(n,t) a[n+1] - A(n,t) a[n+2]
    "lead_linear": (7, 1),
    "lead": ((6,), (-150, -85, -21, -2), (12, 22, 12, 2)),
    "a0_linear": (3, 1),
    "a0_inner": ((6,), (-258, -133, -27, -2), (48, 52, 18, 2)),
    "a1": (
        (-18, -6),
        (906, 693, 214, 33, 2),
        (-4956, -4198, -1408, -224, -14),
        (264, 952, 618, 146, 12),
    ),
    "a2": (
        (-60, -12),
        (1758, 1372, 446, 68, 4),
        (-738, -881, -426, -85, -6),
        (84, 166, 106, 26, 2),
    ),
}

_WHIRL_REC = {
    # a[m] = P of the whirl of order m+1
    "seeds": ((1,), (1,), (1, 3)),
    # (4+n) * (-5-2n+(4+2n)t) * a[n+3] =
    #     (2+n) t (4t-1) (-7-2n+(6+2n)t) a[n] + D(n,t) a[n+1] - E(n,t) a[n+2]
    "lead_linear": (4, 1),
    "lead": ((-5, -2), (4, 2)),
    "a0_linear": (2, 1),
    "a0_inner": ((-7, -2), (6, 2)),
    "a1": ((14, 11, 2), (-102, -78, -14), (74, 62, 12)),
    "a2": ((34, 24, 4), (-46, -35, -6), (16, 12, 2)),
}

_T_4T_MINUS_1 = Poly([0, -1, 4])  # t(4t-1)


def _nt_poly(table, n):
    return Poly([sum(c * n**j for j, c in enumerate(row)) for row in table])


def _linear(pair, n):
    return pair[0] + pair[1] * n


_rec_cache = {"fan": [], "wheel": [], "whirl": []}


def _rec_sequence(family, length):
    """First `length` entries of the recurrence-defined sequence a[0], a[1], ..."""
    cache = _rec_cache[family]
    if not cache:
        data = {"fan": _FAN_REC, "wheel": _WHEEL_REC, "whirl": _WHIRL_REC}[family]
        cache.extend(Poly(s) for s in data["seeds"])
    data = {"fan": _FAN_REC, "wheel": _WHEEL_REC, "whirl": _WHIRL_REC}[family]
    while len(cache) < length:
        m = len(cache)
        if family == "fan":
            n = m - 2
            num = _nt_poly(data["rhs"][1], n) * cache[m - 1] + _nt_poly(
                data["rhs"][0], n
            ) * cache[m - 2]
            lead = _nt_poly(data["lead"], n)
        else:
            n = m - 3
            num = (
                _linear(data["a0_linear"], n)
                * _T_4T_MINUS_1
                * _nt_poly(data["a0_inner"], n)
                * cache[m - 3]
                + _nt_poly(data["a1"], n) * cache[m - 2]
                - _nt_poly(data["a2"], n) * cache[m - 1]
            )
            lead = _linear(data["lead_linear"], n) * _nt_poly(data["lead"], n)
        try:
            cache.append(divexact(num, lead).integerized())
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"{family} recurrence step {m}: inexact division "
                f"(transcription error)"
            ) from exc
    return cache[:length]


def kl_recurrence(family, n):
    """Evaluate the printed P-recursive recurrences with their printed seeds.

    Index conventions: fan n>=0 gives P of the fan on n path vertices; wheel
    n>=2; whirl n>=1.
    """
    if family == "fan":
        if n < 0:
            raise ValueError("fan recurrence needs n >= 0")
        return _rec_sequence("fan", n + 1)[n]
    if family == "wheel":
        if n < 2:
            raise ValueError("wheel recurrence needs n >= 2")
        return _rec_sequence("wheel", n - 1)[n - 2]
    if family == "whirl":
        if n < 1:
            raise ValueError("whirl recurrence needs n >= 1")
        return _rec_sequence("whirl", n)[n - 1]
    raise ValueError("recurrences exist for fan, wheel and whirl only")


def hadamard_wheel_coeff(n, k):
    """Three-sequence factorization of the wheel KL coefficients:
    a_k * b_k * c_k equals the t^k coefficient of the wheel polynomial."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError("k out of range")
    a = (k + 1) * n**2 - (2 * k**2 + 4 * k) * n + (k**3 + 3 * k**2 - k - 1)
    b = Fraction(factorial(n), (n - 1) * factorial(k + 1) * factorial(n + 1 - k))
    c = Fraction((n - 1) * factorial(n - 2 - k), factorial(k) * factorial(n - 1 - 2 * k))
    return a, b, c


def multiplicative_kl(g):
    """KL polynomial of a graph as the product over its biconnected blocks."""
    result = ONE
    for block in _graphs.biconnected_components(g):
        result = result * kl_poly(_matroids.graphic_matroid(block))
    return result


def chromatic_closed(family, n):
    """Closed-form chromatic polynomial of the fan or wheel graph."""
    family = _family_key(family)
    t = Poly([0, 1])
    if family == "fan":
        if n < 1:
            raise ValueError("fan needs n >= 1")
        return t * Poly([-1, 1]) * Poly([-2, 1]) ** (n - 1)
    if family == "wheel":
        if n < 3:
            raise ValueError("wheel needs n >= 3")
        return t * (Poly([-2, 1]) ** n - (-1) ** (n - 1) * Poly([-2, 1]))
    raise ValueError(f"no chromatic closed form for {family}")


def characteristic_closed(family, n):
    """Closed-form characteristic polynomial of the family matroid."""
    family = _family_key(family)
    if family in ("fan", "square"):
        if n < 1:
            raise ValueError("fan/square needs n >= 1")
        return Poly([-1, 1]) * Poly([-2, 1]) ** (n - 1)
    if family == "wheel":
        if n < 3:
            raise ValueError("wheel needs n >= 3")
        return Poly([-2, 1]) ** n - (-1) ** (n - 1) * Poly([-2, 1])
    if n < 3:
        raise ValueError("whirl needs n >= 3")
    return Poly([-2, 1]) ** n - Poly([(-1) ** n])


# ---------------------------------------------------------------------------
# family-level entry points


@dataclass(frozen=True)
class KlResult:
    family: str
    n: int
    method: str
    poly: Poly


@dataclass(frozen=True)
class ZResult:
    family: str
    n: int
    method: str
    poly: Poly


def family_graph(family, n):
    family = _family_key(family)
    if family == "whirl":
        raise ValueError("the whirl is not a graph")
    name = {"fan": "fan", "square": "square_of_path", "wheel": "wheel"}[family]
    return _graphs.make_family(name, n)


def family_matroid(family, n):
    family = _family_key(family)
    if family == "whirl":
        return _matroids.whirl_matroid(n)
    return _matroids.graphic_matroid(family_graph(family, n))


def family_rank(family, n):
    return n


def compute_kl(family, n, method):
    family = _family_key(family)
    if method == "brute":
        poly = kl_poly(family_matroid(family, n))
    elif method == "closed":
        poly = kl_closed(family, n)
    elif method == "recurrence":
        if family == "square":
            raise ValueError("no printed recurrence for square-of-path; use fan")
        poly = kl_recurrence(family, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    rank = family_rank(family, n)
    if rank > 0 and not poly.degree < rank / 2:
        raise ArithmeticError("degree bound violated")
    return KlResult(family, n, method, poly)


def compute_z(family, n, method):
    family = _family_key(family)
    if method == "brute":
        poly = z_poly(family_matroid(family, n))
    elif method == "closed":
        poly = z_closed(family, n)
    else:
        raise ValueError(f"Z-polynomials support methods brute and closed only")
    if poly.degree != family_rank(family, n):
        raise ArithmeticError("Z-polynomial degree must equal the rank")
    return ZResult(family, n, method, poly)
