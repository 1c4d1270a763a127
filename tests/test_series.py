import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    convolution_sqrt, gf_expand_over_q, series_div_by_poly, series_mul_by_poly,
    series_sqrt_by_poly,
)
from matroidkl import kl, series
from matroidkl.poly import Poly
from matroidkl.series import GF_NAMES, GF_START, MAX_ORDER, TruncSeries, gf_expand

ONE = Poly([1])


def S(order, *coeffs):
    return TruncSeries(order, coeffs)


def test_basic_ops():
    n = 6
    assert S(n, 1, 1) * S(n, 1, -1) == S(n, 1, 0, -1)
    a = S(n, 3, Poly([1, 2]), 0, 7)
    assert a * S(n, 1) == a
    assert S(n, 0, 1) * S(n, 0, 1) == S(n, 0, 0, 1)
    assert S(n, 1, 2) + S(n, 3, -2) == S(n, 4)
    assert S(n, 1, 1) * Fraction(1, 2) == S(n, Poly([Fraction(1, 2)]), Poly([Fraction(1, 2)]))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        S(3, 1) + S(4, 1)
    with pytest.raises(ValueError):
        S(3, 1) * S(4, 1)


def test_inverse_geometric():
    n = 8
    geo = S(n, 1) / S(n, 1, -1)
    assert geo == S(n, *([1] * (n + 1)))
    assert S(n, 1) / S(n, 1) == S(n, 1)
    shifted = S(n, 1) / S(n, 1, Poly([1, -1]))  # 1 - (t-1)u
    for k in range(n + 1):
        assert shifted.coefficient(k) == Poly([-1, 1]) ** k
    with pytest.raises(ValueError):
        S(n, 1) / S(n, 0, 1)
    with pytest.raises(ArithmeticError):
        S(n, 1) / S(n, Poly([1, 1]))  # 1 + t does not divide 1: inexact division


def test_inverse_roundtrip():
    n = 7
    rng = random.Random(2)
    for _ in range(25):
        a = S(n, rng.randint(1, 5), *[
            Poly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(n)
        ])
        assert a * (S(n, 1) / a) == S(n, 1)


def test_sqrt_examples():
    n = 8
    assert S(n, 1).sqrt() == S(n, 1)
    assert S(n, 1, -2, 1).sqrt() == S(n, 1, -1)
    with pytest.raises(ValueError):
        S(n, 4).sqrt()
    with pytest.raises(ValueError):
        S(n, 0, 1).sqrt()


def test_sqrt_square_roundtrip():
    n = 8
    rng = random.Random(9)
    for _ in range(25):
        a = S(n, 1, *[
            Poly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(n)
        ])
        r = a.sqrt()
        assert r * r == a
    # the KL radical normalizes to constant term 1 and squares back
    rad = S(n, 1, -2, Poly([1, -4]))
    r = rad.sqrt()
    assert r * r == rad


def test_gf_spot_coefficients():
    assert gf_expand("kl_fan", 6).coefficient(5) == Poly([1, 6, 2])
    assert gf_expand("kl_whirl", 4).coefficient(3) == Poly([1, 3])
    assert gf_expand("z_whirl", 4).coefficient(3) == Poly([1, 9, 9, 1])


def test_gf_leading_window():
    assert gf_expand("kl_fan", 5).coefficient(0) == ONE
    w = gf_expand("kl_wheel", 5)
    assert w.coefficient(0).is_zero() and w.coefficient(1).is_zero()
    assert w.coefficient(2) == ONE
    wh = gf_expand("kl_whirl", 5)
    assert wh.coefficient(0).is_zero()
    assert wh.coefficient(1) == ONE and wh.coefficient(2) == ONE
    zw = gf_expand("z_whirl", 5)
    assert zw.coefficient(0).is_zero()
    assert zw.coefficient(1) == Poly([1, 1])


def test_gf_against_closed_forms():
    order = 10
    expansions = {name: gf_expand(name, order) for name in GF_NAMES}
    for n in range(1, order + 1):
        assert expansions["kl_fan"].coefficient(n) == kl.kl_closed("fan", n)
        if n >= 2:
            assert expansions["kl_wheel"].coefficient(n) == kl.kl_closed("wheel", n)
            assert expansions["z_wheel"].coefficient(n) == kl.z_closed("wheel", n)
        if n >= 3:
            assert expansions["kl_whirl"].coefficient(n) == kl.kl_closed("whirl", n)
        assert expansions["z_fan"].coefficient(n) == kl.z_closed("fan", n)
        assert expansions["z_whirl"].coefficient(n) == kl.z_closed("whirl", n)


def test_z_whirl_binomial_squares():
    s = gf_expand("z_whirl", 12)
    for n in range(1, 13):
        assert s.coefficient(n) == Poly([comb(n, k) ** 2 for k in range(n + 1)])


def test_gf_low_orders_truncate_the_order_12_expansion():
    # the radicands and numerators have up to three u-coefficients, which an
    # order below 2 must drop rather than reject
    for name in GF_NAMES:
        full = gf_expand(name, 12).coeffs
        for order in (1, 2, 3):
            assert gf_expand(name, order).coeffs == full[:order + 1], (name, order)


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_expand_matches_u_space_oracle(name):
    # every order against the order-64 convolution oracle truncated
    want = gf_expand_over_q(name, MAX_ORDER).coeffs
    for order in range(1, MAX_ORDER + 1):
        got = gf_expand(name, order).coeffs
        assert got == want[:order + 1], (name, order)
        assert all(type(c) is int for p in got for c in p.coeffs)


def test_gf_start_is_where_each_series_starts():
    assert set(GF_START) == set(GF_NAMES)
    for name in GF_NAMES:
        s = gf_expand(name, 6)
        start = GF_START[name]
        assert all(s.coefficient(k).is_zero() for k in range(start))
        assert not s.coefficient(start).is_zero()


def test_exact_halving_keeps_ints():
    assert S(3, 2, Poly([4, -6])) / 2 == S(3, 1, Poly([2, -3]))
    assert all(type(c) is int for p in (S(3, 2, Poly([4, -6])) / 2).coeffs for c in p.coeffs)
    assert S(2, 1, 3) / 2 == S(2, Fraction(1, 2), Fraction(3, 2))
    # sqrt(1 + 4x) = 1 + 2x - 2x^2 + 4x^3 - 10x^4: each division by 2k stays in ints
    r = S(4, 1, 4).sqrt()
    assert r == S(4, 1, 2, -2, 4, -10)
    assert all(type(c) is int for p in r.coeffs for c in p.coeffs)
    inv = S(4, 1) / S(4, -1, Poly([0, 3]))
    assert inv * S(4, -1, Poly([0, 3])) == S(4, 1)
    assert all(type(c) is int for p in inv.coeffs for c in p.coeffs)


def test_gf_guards():
    with pytest.raises(ValueError):
        gf_expand("kl_fan", 0)
    with pytest.raises(ValueError):
        gf_expand("kl_fan", 65)
    with pytest.raises(ValueError):
        gf_expand("nope", 5)
    for order in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="order must be an int"):
            gf_expand("kl_fan", order)


def test_truncation_order_must_be_an_int():
    for order in (True, 2.0):
        with pytest.raises(TypeError, match="truncation order must be an int"):
            TruncSeries(order, [1])
    with pytest.raises(ValueError):
        TruncSeries(-1)


def test_gf_expansion_costs_linear_in_the_order(monkeypatch):
    # the radical by its differential equation and each quotient by one pass
    # over a short divisor: doubling the order about doubles the products of
    # two nonzero coefficients that the kernels form, where the convolutions
    # quadrupled them (ratio 3.84)
    count = [0]

    def nonzero(rows):
        return [i for i, row in enumerate(rows) if row]

    def mul(a, b):
        count[0] += sum(i + j < len(a) for i in nonzero(a) for j in nonzero(b))
        return kernels["_mul"](a, b)

    def div(s, d):  # one product per nonzero d_i, i >= 1, at each k >= i
        count[0] += sum(len(s) - i for i in nonzero(d) if 0 < i < len(s))
        return kernels["_div"](s, d)

    def sqrt(p):
        count[0] += sum(len(p) - i for i in nonzero(p) if i)
        return kernels["_sqrt"](p)

    kernels = {name: getattr(series, name) for name in ("_mul", "_div", "_sqrt")}
    for name, counted in (("_mul", mul), ("_div", div), ("_sqrt", sqrt)):
        monkeypatch.setattr(series, name, counted)
    products = {}
    for order in (32, 64):
        count[0] = 0
        for name in GF_NAMES:
            gf_expand(name, order)
        products[order] = count[0]
    assert products[32] > 0 and products[64] <= 2.2 * products[32], products


def test_series_division():
    n = 6
    t = Poly([0, 1])
    b = S(n, Poly([0, 2]), 1, t)
    a = S(n, 3, Poly([1, -1]), 0, 0, 5)
    q = (a * b) / b
    assert q == a
    assert all(type(c) is int for p in q.coeffs for c in p.coeffs)
    with pytest.raises(ArithmeticError):
        S(n, 1) / b  # t does not divide 1
    with pytest.raises(ValueError):
        a / S(n, 0, 1)
    with pytest.raises(ValueError):
        a / S(n)


# series with small rational polynomial coefficients; small orders keep the
# properties cheap enough for tier-1
COEFF_POLYS = st.lists(st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4)),
                       max_size=3).map(Poly)
SERIES_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def unit_series(draw, constant, full=False):
    """A series with the drawn constant term; a full one has a nonzero
    coefficient at its truncation order."""
    order = draw(st.integers(0, 6))
    if full and order:
        tail = draw(st.lists(COEFF_POLYS, min_size=order - 1, max_size=order - 1))
        tail.append(draw(COEFF_POLYS.filter(bool)))
    else:
        tail = draw(st.lists(COEFF_POLYS, max_size=order))
    return TruncSeries(order, [draw(constant), *tail])


INT_POLYS = st.lists(st.integers(-5, 5), max_size=3).map(Poly)
# a nonconstant polynomial in t: no unit of Q[t]
NONCONSTANT_POLYS = st.lists(st.integers(-5, 5), min_size=2, max_size=3).map(Poly).filter(
    lambda p: p.degree >= 1)


@st.composite
def int_series(draw, order, constant=INT_POLYS):
    return TruncSeries(order, [draw(constant), *draw(st.lists(INT_POLYS, max_size=order))])


@SERIES_SETTINGS
@given(unit_series(st.fractions(-5, 5, max_denominator=4).filter(bool)))
def test_inverse_property_rational(s):
    assert s * (S(s.order, 1) / s) == S(s.order, 1)


@SERIES_SETTINGS
@given(unit_series(st.just(1)))
def test_sqrt_property_rational(s):
    r = s.sqrt()
    assert r.coefficient(0) == ONE
    assert r * r == s


@SERIES_SETTINGS
@given(st.one_of(unit_series(st.just(1)), unit_series(st.just(1), full=True)))
def test_sqrt_matches_convolution(s):
    assert s.sqrt() == convolution_sqrt(s)


@SERIES_SETTINGS
@given(st.data())
def test_division_undoes_product(data):
    order = data.draw(st.integers(0, 6))
    a = data.draw(int_series(order))
    b = data.draw(int_series(order, NONCONSTANT_POLYS))
    assert (a * b) / b == a


@SERIES_SETTINGS
@given(st.data())
def test_inexact_division_raises(data):
    # a constant term of lower degree than the divisor's is no multiple of it
    order = data.draw(st.integers(0, 6))
    a, b = data.draw(int_series(order)), data.draw(int_series(order, NONCONSTANT_POLYS))
    r = data.draw(INT_POLYS.filter(lambda p: p and p.degree < b.coefficient(0).degree))
    with pytest.raises(ArithmeticError):
        (a * b + TruncSeries(order, [r])) / b
    with pytest.raises(ArithmeticError):
        series_div_by_poly(a * b + TruncSeries(order, [r]), b)


# the TruncSeries methods run the list kernels; the Poly-level methods they
# replaced (conftest) are the oracles, on int and Fraction series alike, down
# to each coefficient's type
ANY_POLYS = st.one_of(INT_POLYS, COEFF_POLYS)
SCALARS = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4))


@st.composite
def series_pairs(draw, constant=ANY_POLYS):
    """(a, b) of one order, b's constant coefficient drawn from `constant`."""
    order = draw(st.integers(0, 6))
    a = TruncSeries(order, draw(st.lists(ANY_POLYS, max_size=order + 1)))
    b = TruncSeries(order, [draw(constant), *draw(st.lists(ANY_POLYS, max_size=order))])
    return a, b


def assert_same(got, want):
    assert got == want
    assert [type(c) for p in got.coeffs for c in p.coeffs] == [
        type(c) for p in want.coeffs for c in p.coeffs]


@SERIES_SETTINGS
@given(series_pairs(), ANY_POLYS, SCALARS)
def test_product_sum_and_difference_match_the_poly_methods(pair, p, c):
    a, b = pair
    assert_same(a * b, series_mul_by_poly(a, b))
    assert_same(b * a, series_mul_by_poly(a, b))
    for scalar in (p, c):
        assert_same(a * scalar, series_mul_by_poly(a, scalar))
        assert_same(scalar * a, series_mul_by_poly(a, scalar))
    assert_same(a + b, TruncSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)]))
    assert_same(a - b, TruncSeries(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)]))


@SERIES_SETTINGS
@given(series_pairs(ANY_POLYS.filter(bool)), SCALARS.filter(bool))
def test_division_matches_the_poly_method(pair, c):
    # a nonconstant d0 often leaves a remainder: then both raise
    a, d = pair
    try:
        want = series_div_by_poly(a, d)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            a / d
    else:
        assert_same(a / d, want)
    assert_same(a / c, series_div_by_poly(a, c))
    no_constant = TruncSeries(d.order, [0, *d.coeffs[1:]])
    for divide in (TruncSeries.__truediv__, series_div_by_poly):
        with pytest.raises(ValueError, match="nonzero constant coefficient"):
            divide(a, no_constant)


@SERIES_SETTINGS
@given(st.one_of(unit_series(st.just(1)), unit_series(st.just(1), full=True),
                 st.integers(0, 6).flatmap(lambda order: int_series(order, st.just(ONE)))))
def test_sqrt_matches_the_poly_method(s):
    assert_same(s.sqrt(), series_sqrt_by_poly(s))


@SERIES_SETTINGS
@given(unit_series(ANY_POLYS.filter(lambda p: p != ONE)))
def test_sqrt_refuses_a_constant_other_than_1_like_the_poly_method(s):
    for sqrt in (TruncSeries.sqrt, series_sqrt_by_poly):
        with pytest.raises(ValueError, match="constant coefficient 1"):
            sqrt(s)
