import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    divexact, euclid_over_q, gcd_over_q, poly_divmod, poly_divmod_over_q, poly_gcd,
    primitive_part,
)
from matroidkl.poly import NEG_INF, ZERO, Poly, remainder_sequence


def rand_poly(rng, max_deg=6, span=9):
    return Poly([rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


def test_canonical_form_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly().degree == NEG_INF
    assert Poly([0]).degree == NEG_INF
    assert Poly([5]).degree == 0
    assert Poly([Fraction(4, 2)]).coeffs == (2,)  # integral fractions collapse to int


def test_mul_examples():
    one_plus_t = Poly([1, 1])
    assert one_plus_t * one_plus_t == Poly([1, 2, 1])
    assert Poly([1, 6, 2]) * Poly() == Poly()
    assert Poly([1, 6, 2]) * Poly([1]) == Poly([1, 6, 2])


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == Poly()


def test_eval_examples():
    assert Poly([1, 6, 2])(1) == 9
    assert Poly([4, 9, 1])(0) == 4
    assert Poly([1, 3, 1])(1) == 5
    assert Poly([1, 1])(Fraction(1, 2)) == Fraction(3, 2)


def test_divmod_and_divexact():
    a = Poly([2, 7, 7, 2])
    b = Poly([1, 2])
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert divexact(Poly([1, 2, 1]), Poly([1, 1])) == Poly([1, 1])
    with pytest.raises(ArithmeticError):
        divexact(Poly([1, 1, 1]), Poly([1, 1]))


def test_gcd_and_primitive_part():
    p = Poly([1, 1]) ** 2 * Poly([-3, 1])
    q = Poly([1, 1]) * Poly([5, 1])
    assert poly_gcd(p, q) == Poly([1, 1])
    assert primitive_part(Poly([Fraction(2, 3), Fraction(4, 3)])) == Poly([1, 2])
    # denominators cleared by their lcm (12), then the gcd divided out; the
    # sign is kept and every coefficient comes back an int
    mixed = primitive_part(Poly([Fraction(1, 2), Fraction(-3, 4), 5, Fraction(-5, 6)]))
    assert mixed == Poly([6, -9, 60, -10])
    assert all(type(c) is int for c in mixed.coeffs)
    assert primitive_part(Poly([4, 0, -6, -8])) == Poly([2, 0, -3, -4])
    assert primitive_part(Poly([Fraction(-4, 3), Fraction(-2, 9)])) == Poly([-6, -1])
    # a zero argument ends the remainder sequence at once: no division by zero
    assert poly_gcd(ZERO, Poly([2, 4])) == Poly([1, 2])
    assert poly_gcd(Poly([-3, -6, 0, 9]), ZERO) == Poly([-1, -2, 0, 3])
    assert poly_gcd(Poly([-2, -4]), ZERO) == Poly([1, 2])
    assert poly_gcd(ZERO, ZERO) == ZERO
    assert poly_gcd(Poly([6]), Poly([4])) == Poly([1])
    assert poly_gcd(Poly([Fraction(1, 2)]), Poly([-3])) == Poly([1])


def assert_sequence_matches_euclid_over_q(a, b):
    """Pseudo-division gives the primitive parts of Euclid's terms over Q,
    term for term and in ints."""
    seq = remainder_sequence(a, b)
    assert seq == [primitive_part(term) for term in euclid_over_q(a, b)]
    assert all(type(c) is int for term in seq for c in term.coeffs)


# products s*u and s*v of a shared factor s and unshared factors u, v
INT_POLYS = st.lists(st.integers(-9, 9), max_size=4).map(Poly)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(INT_POLYS, INT_POLYS, INT_POLYS)
def test_gcd_matches_euclid_over_q_oracle(s, u, v):
    a, b = s * u, s * v
    assert poly_gcd(a, b) == gcd_over_q(a, b)
    # s makes shared (and repeated) roots common
    assert_sequence_matches_euclid_over_q(a, b)
    assert_sequence_matches_euclid_over_q(a, a.derivative())
    if b:
        assert divexact(a * b, b) == a


def test_remainder_sequence_edge_cases():
    t_plus_1, t_minus_2 = Poly([1, 1]), Poly([-2, 1])
    for p in (
        t_plus_1 ** 3 * t_minus_2 ** 2,  # repeated roots
        Poly([0, 0, 3, 1]) * t_minus_2,  # a double root at 0
        -(t_plus_1 * t_minus_2 * Poly([5, 0, 3])),  # negative leading coefficient
        Poly([Fraction(1, 2), Fraction(-7, 3), 0, Fraction(-5, 4), -2]),  # rational input
    ):
        assert_sequence_matches_euclid_over_q(p, p.derivative())
        assert_sequence_matches_euclid_over_q(p, -t_plus_1 * p.derivative())
        assert_sequence_matches_euclid_over_q(p.derivative(), p)
    assert remainder_sequence(ZERO, Poly([-4, 2])) == [ZERO, Poly([-2, 1])]
    assert remainder_sequence(Poly([6, 3]), ZERO) == [Poly([2, 1])]


def test_power_needs_int_exponent():
    for n in (True, False, 2.0):
        with pytest.raises(TypeError, match="power must be an int"):
            Poly([1, 1]) ** n
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


def test_construction_normalizes_only_non_int_coefficients():
    with pytest.raises(TypeError):
        Poly([True])
    with pytest.raises(TypeError):
        Poly([1, False])
    p = Poly([Fraction(4, 2)])
    assert p.coeffs == (2,) and type(p.coeffs[0]) is int
    assert Poly([1, Fraction(1, 2), 0]).coeffs == (1, Fraction(1, 2))


def test_subtraction_in_one_pass():
    assert Poly([1, 2]) - Poly([1, 2, 3]) == Poly([0, 0, -3])
    assert Poly([1, 2, 3]) - Poly([1]) == Poly([0, 2, 3])
    assert Poly([1, 2]) - Poly([1, 2]) == Poly()
    assert Poly([5]) - 5 == Poly()


# small sizes keep every property cheap enough for tier-1
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
FRAC_POLYS = st.lists(st.one_of(st.integers(-9, 9), FRACTIONS), max_size=4).map(Poly)


@pytest.mark.parametrize("polys", [INT_POLYS, FRAC_POLYS], ids=["int", "fraction"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_ring_laws_property(polys, data):
    a, b, c = (data.draw(polys) for _ in range(3))
    k = data.draw(st.one_of(st.integers(-9, 9), FRACTIONS))
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * Poly([1]) == a and a * ZERO == ZERO
    assert a - b == a + -b and a - a == ZERO
    assert a * k == a * Poly([k]) == k * a
    assert (a * b).degree == a.degree + b.degree


def coeff_types(p):
    return [type(c) for c in p.coeffs]


# FRAC_POLYS mixes int and Fraction coefficients; leading coefficients of
# either sign come from both strategies
@pytest.mark.parametrize("dividends, divisors", [
    (INT_POLYS, INT_POLYS.filter(bool)),
    (FRAC_POLYS, FRAC_POLYS.filter(bool)),
    (INT_POLYS, FRAC_POLYS.filter(bool)),
    (FRAC_POLYS, INT_POLYS.filter(bool)),
], ids=["int", "mixed", "int-by-mixed", "mixed-by-int"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_divmod_matches_rational_oracle(dividends, divisors, data):
    a = data.draw(dividends)
    b = data.draw(divisors)
    # a multiple of b as well, so the exact (zero remainder) case is common
    for dividend in (a, a * b):
        q, r = poly_divmod(dividend, b)
        want_q, want_r = poly_divmod_over_q(dividend, b)
        assert (q, r) == (want_q, want_r)
        assert coeff_types(q) == coeff_types(want_q) and coeff_types(r) == coeff_types(want_r)
        assert q * b + r == dividend


def test_constant_poly_hashes_like_its_scalar():
    for c in (0, 1, -3, 7**40, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2)):
        p = Poly([c])
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}
    assert ZERO == 0 and hash(ZERO) == hash(0) and 0 in {ZERO}
    assert {Poly([3]): "p"}[3] == "p"
    assert hash(Poly([1, 2])) == hash(Poly([Fraction(2, 2), 2]))


def test_bool_is_not_a_constant_poly():
    # a bool hashes like 0 or 1 but is no coefficient: comparing is unequal,
    # not a TypeError
    assert True not in {Poly([1])} and Poly([1]) not in [True]
    assert False not in {ZERO} and ZERO not in {False: "f"}
    assert Poly([1]) != True and not Poly([0]) == False  # noqa: E712


def test_integerized_signal():
    with pytest.raises(ArithmeticError):
        Poly([Fraction(1, 2)]).integerized()
    assert Poly([Fraction(6, 3), 1]).integerized() == Poly([2, 1])


def test_pow_and_eval_consistency():
    rng = random.Random(19)
    for _ in range(50):
        p = rand_poly(rng, max_deg=3, span=4)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (p**3)(x) == p(x) ** 3
