import random
from fractions import Fraction
from math import comb

import pytest

from matroidkl import kl
from matroidkl.poly import Poly
from matroidkl.series import GF_NAMES, TruncSeries, gf_expand

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
    geo = S(n, 1, -1).inverse()
    assert geo == S(n, *([1] * (n + 1)))
    assert S(n, 1).inverse() == S(n, 1)
    shifted = S(n, 1, Poly([1, -1])).inverse()  # 1 - (t-1)u
    for k in range(n + 1):
        assert shifted.coefficient(k) == Poly([-1, 1]) ** k
    with pytest.raises(ValueError):
        S(n, 0, 1).inverse()
    with pytest.raises(ValueError):
        S(n, Poly([1, 1])).inverse()  # non-constant leading coefficient


def test_inverse_roundtrip():
    n = 7
    rng = random.Random(2)
    for _ in range(25):
        a = S(n, rng.randint(1, 5), *[
            Poly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(n)
        ])
        assert a * a.inverse() == S(n, 1)


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


def test_gf_guards():
    with pytest.raises(ValueError):
        gf_expand("kl_fan", 0)
    with pytest.raises(ValueError):
        gf_expand("kl_fan", 65)
    with pytest.raises(ValueError):
        gf_expand("nope", 5)
