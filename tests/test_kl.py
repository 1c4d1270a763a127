import hashlib
import random
from fractions import Fraction

import pytest

from conftest import lattice_isomorphic
from matroidkl import kl
from matroidkl.graphs import SimpleGraph, make_family
from matroidkl.matroids import RankOracleMatroid, graphic_matroid, whirl_matroid
from matroidkl.poly import Poly, reverse_scaled


def fam_matroid(family, n):
    return kl.family_matroid(family, n)


def test_rank_zero_and_forests():
    empty = RankOracleMatroid(0, bytearray(1))
    assert kl.kl_poly(empty) == Poly([1])
    assert kl.z_poly(empty) == Poly([1])
    for g in (make_family("path", 4), SimpleGraph(5, [(0, 1), (2, 3)])):
        assert kl.kl_poly(graphic_matroid(g)) == Poly([1])


def test_brute_spot_values():
    assert kl.kl_poly(fam_matroid("wheel", 3)) == Poly([1, 1])
    assert kl.z_poly(fam_matroid("fan", 1)) == Poly([1, 1])
    assert kl.z_poly(whirl_matroid(3)) == Poly([1, 9, 9, 1])
    # the 3-cycle stands in for the degenerate wheel on two rim vertices
    tri = graphic_matroid(make_family("cycle", 3))
    assert kl.kl_poly(tri) == Poly([1])
    assert kl.z_poly(tri) == Poly([1, 3, 1])


def test_closed_spot_values():
    assert kl.kl_closed("fan", 5) == Poly([1, 6, 2])
    assert kl.kl_closed("wheel", 4) == Poly([1, 5])
    assert kl.kl_closed("wheel", 3) == Poly([1, 1])
    assert kl.kl_closed("whirl", 3) == Poly([1, 3])
    assert kl.kl_closed("wheel", 2) == Poly([1])  # informational extension
    assert kl.z_closed("fan", 2) == Poly([1, 3, 1])
    assert kl.z_closed("whirl", 3) == Poly([1, 9, 9, 1])
    assert kl.z_closed("wheel", 3) == Poly([1, 7, 7, 1])
    with pytest.raises(ValueError):
        kl.kl_closed("whirl", 2)
    with pytest.raises(ValueError):
        kl.kl_closed("fan", 0)


def test_oracle_equivalence_small():
    for n in range(1, 6):
        assert kl.kl_poly(fam_matroid("fan", n)) == kl.kl_closed("fan", n)
        assert kl.kl_poly(fam_matroid("square", n)) == kl.kl_closed("fan", n)
        assert kl.z_poly(fam_matroid("fan", n)) == kl.z_closed("fan", n)
    for n in range(3, 6):
        assert kl.kl_poly(fam_matroid("wheel", n)) == kl.kl_closed("wheel", n)
        assert kl.kl_poly(fam_matroid("whirl", n)) == kl.kl_closed("whirl", n)
        assert kl.z_poly(fam_matroid("wheel", n)) == kl.z_closed("wheel", n)
        assert kl.z_poly(fam_matroid("whirl", n)) == kl.z_closed("whirl", n)


def test_degree_bound_and_constant_term():
    for family, lo in (("fan", 1), ("square", 1), ("wheel", 3), ("whirl", 3)):
        for n in range(lo, 6):
            p = kl.kl_poly(fam_matroid(family, n))
            assert p.coeff(0) == 1
            assert p.is_zero() or p.degree < n / 2
            z = kl.z_poly(fam_matroid(family, n))
            assert z.degree == n


def test_every_flat_against_naive():
    # the pass solves every upper interval [F, top]: each is the lattice of
    # the contraction at F, which the naive route rebuilds from rank oracles
    from matroidkl.matroids import contraction

    for family, n in (("fan", 4), ("wheel", 4), ("whirl", 4)):
        m = fam_matroid(family, n)
        ps, zs = kl._flat_pass(kl.lattice_of(m))
        assert len(ps) == len(m.flats())
        for f, p, z in zip(m.flats(), ps, zs):
            contr = contraction(m, f.elements)
            assert p == naive_kl(contr)
            assert z == naive_z(contr)


def _rederive_below(lat, ps, i):
    """Recompute P at every flat strictly below flat i from the values above
    it by palindromicity of Z, the way the pass carries a fault at i down."""
    up = lat.upper_sets()
    for a in sorted(range(lat.n), key=lambda a: -lat.ranks[a]):
        if a == i or not lat.below[i] >> a & 1:
            continue
        r = lat.top_rank - lat.ranks[a]
        rest = Poly()
        for f in range(lat.n):
            if f != a and up[a] >> f & 1:
                rest = rest + Poly.monomial(lat.ranks[f] - lat.ranks[a]) * ps[f]
        ps[a] = Poly([rest.coeff(r - k) - rest.coeff(k) for k in range((r + 1) // 2)])


def test_bottom_certificate_catches_interior_fault():
    faults = 0
    for family, n in (("fan", 4), ("wheel", 4), ("whirl", 4)):
        lat = kl.lattice_of(fam_matroid(family, n))
        clean, _ = kl._flat_pass(lat)
        for i in range(lat.n):
            r = lat.top_rank - lat.ranks[i]
            if lat.ranks[i] == 0 or r == 0:
                continue
            for k in range((r + 1) // 2):
                ps = list(clean)
                ps[i] = ps[i] + Poly.monomial(k)
                _rederive_below(lat, ps, i)
                with pytest.raises(ArithmeticError):
                    kl._check_bottom(lat, ps)
                faults += 1
    assert faults == 140


def test_z_palindromic_closed_forms():
    for n in range(1, 12):
        for fam in ("fan", "whirl"):
            z = kl.z_closed(fam, n)
            assert list(z.coeffs) == list(reversed(z.coeffs))


def test_recurrence_seeds():
    assert kl.kl_recurrence("fan", 0) == Poly([1])
    assert kl.kl_recurrence("fan", 1) == Poly([1])
    assert kl.kl_recurrence("wheel", 2) == Poly([1])
    assert kl.kl_recurrence("wheel", 3) == Poly([1, 1])
    assert kl.kl_recurrence("wheel", 4) == Poly([1, 5])
    assert kl.kl_recurrence("whirl", 1) == Poly([1])
    assert kl.kl_recurrence("whirl", 2) == Poly([1])
    assert kl.kl_recurrence("whirl", 3) == Poly([1, 3])


def test_recurrence_matches_closed_forms():
    for n in range(1, 26):
        assert kl.kl_recurrence("fan", n) == kl.kl_closed("fan", n)
    for n in range(2, 26):
        assert kl.kl_recurrence("wheel", n) == kl.kl_closed("wheel", n)
    for n in range(3, 26):
        assert kl.kl_recurrence("whirl", n) == kl.kl_closed("whirl", n)


def test_recurrence_transcription_digests():
    frozen = {
        "fan": "928f2041b4d524a25ee4d68b9253e97b4a6c8dfa55bc4f043b34ff3e9b6ef1e4",
        "wheel": "c5b700538f50273d04788117e2735d8412f39d49bc433d709dac3081030c2743",
        "whirl": "7f1c7ccfb6e96582a97ce992b9a4489328bc21aef50c122676e46ff76234d79b",
    }
    tables = {"fan": kl._FAN_REC, "wheel": kl._WHEEL_REC, "whirl": kl._WHIRL_REC}
    for name, data in tables.items():
        digest = hashlib.sha256(repr(sorted(data.items())).encode()).hexdigest()
        assert digest == frozen[name], f"{name} recurrence table was edited"


def test_hadamard_examples():
    a, b, c = kl.hadamard_wheel_coeff(3, 0)
    assert a * b * c == 1
    a, b, c = kl.hadamard_wheel_coeff(4, 1)
    assert a * b * c == 5
    a, b, c = kl.hadamard_wheel_coeff(3, 1)
    assert a * b * c == 1
    with pytest.raises(ValueError):
        kl.hadamard_wheel_coeff(3, 2)


def test_hadamard_sweep():
    for n in range(3, 13):
        p = kl.kl_closed("wheel", n)
        for k in range((n - 1) // 2 + 1):
            a, b, c = kl.hadamard_wheel_coeff(n, k)
            assert a * b * c == p.coeff(k)
            assert isinstance(a, int)
            assert isinstance(b, Fraction) and isinstance(c, Fraction)


def test_whirl_closed_rewrite():
    # binomial-times-Fibonacci-coefficient form of the whirl polynomial
    from math import comb

    for n in range(3, 20):
        rewritten = Poly(
            [comb(n, k) * comb(n - k - 1, k) for k in range((n - 1) // 2 + 1)]
        )
        assert rewritten == kl.kl_closed("whirl", n)


def test_multiplicative_examples():
    assert kl.multiplicative_kl(make_family("path", 6)) == Poly([1])
    bowtie = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert kl.multiplicative_kl(bowtie) == Poly([1])
    f3 = make_family("fan", 3)
    two_fans = SimpleGraph(8, list(f3.edges) + [(u + 4, v + 4) for u, v in f3.edges])
    assert kl.multiplicative_kl(two_fans) == Poly([1, 1]) * Poly([1, 1])


def test_multiplicative_equals_brute():
    rng = random.Random(13)
    from conftest import random_simple_graph

    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        if len(g.edges) > 12:
            continue
        assert kl.multiplicative_kl(g) == kl.kl_poly(graphic_matroid(g))


def test_motzkin_catalan_evaluations():
    from conftest import catalan_numbers, motzkin_numbers

    motzkin = motzkin_numbers(16)
    catalan = catalan_numbers(18)
    for n in range(1, 16):
        assert kl.kl_closed("fan", n)(1) == motzkin[n - 1]
        assert kl.z_closed("fan", n)(1) == catalan[n + 1]


def test_square_equals_fan_brute():
    for n in range(1, 6):
        assert kl.kl_poly(fam_matroid("square", n)) == kl.kl_poly(fam_matroid("fan", n))


def test_compute_wrappers():
    r = kl.compute_kl("fan", 5, "closed")
    assert r.poly == Poly([1, 6, 2]) and r.method == "closed"
    z = kl.compute_z("whirl", 3, "closed")
    assert z.poly == Poly([1, 9, 9, 1])
    with pytest.raises(ValueError):
        kl.compute_kl("square", 4, "recurrence")
    with pytest.raises(ValueError):
        kl.compute_z("fan", 4, "recurrence")


def naive_kl(m):
    """Slow independent route: build localization/contraction oracles per
    flat and read P off the low-degree equations of the defining identity
    (the engine uses the mirrored high-degree ones)."""
    from matroidkl.matroids import characteristic_polynomial, contraction, localization

    r = m.full_rank
    if r == 0:
        return Poly([1])
    s = Poly()
    for f in m.flats():
        if f.elements == 0:
            continue
        chi = characteristic_polynomial(localization(m, f))
        s = s + chi * naive_kl(contraction(m, f))
    # t^r P(1/t) - P = S gives p_d = -s_d for every d below r/2
    p = Poly([-s.coeff(d) for d in range((r - 1) // 2 + 1)])
    assert reverse_scaled(p, r) == p + s
    return p


def naive_z(m):
    from matroidkl.matroids import contraction

    total = Poly()
    for f in m.flats():
        total = total + Poly.monomial(f.rank) * naive_kl(contraction(m, f))
    return total


def test_engine_against_naive_recursion():
    cases = [fam_matroid("fan", n) for n in range(1, 6)]
    cases += [fam_matroid("square", n) for n in range(1, 5)]
    cases += [fam_matroid("wheel", n) for n in (3, 4)]
    cases += [fam_matroid("whirl", n) for n in (3, 4)]
    for m in cases:
        assert kl.kl_poly(m) == naive_kl(m)
        assert kl.z_poly(m) == naive_z(m)


def test_engine_against_naive_on_random_graphs():
    rng = random.Random(4242)
    from conftest import random_simple_graph

    done = 0
    while done < 10:
        g = random_simple_graph(rng, max_n=6)
        if len(g.edges) > 9:
            continue
        m = graphic_matroid(g)
        assert kl.kl_poly(m) == naive_kl(m)
        assert kl.z_poly(m) == naive_z(m)
        done += 1


def test_ground_set_size_guard():
    with pytest.raises(ValueError):
        graphic_matroid(make_family("fan", 9))  # 17 edges exceeds the table bound


def test_lattice_isomorphism_checker():
    a = kl.lattice_of(graphic_matroid(make_family("fan", 4)))
    b = kl.lattice_of(graphic_matroid(make_family("square_of_path", 4)))
    c = kl.lattice_of(graphic_matroid(make_family("wheel", 4)))
    assert lattice_isomorphic(a, b) is True
    assert lattice_isomorphic(a, c) is False


def _bipartite_rank3_lattice(coatom_atoms):
    """Rank-3 graded order: bottom, 4 atoms, 4 coatoms (with the given atom
    sets below them), top."""
    ranks = [0] + [1] * 4 + [2] * 4 + [3]
    below = [1]  # bottom
    for i in range(4):
        below.append(1 | 1 << (1 + i))
    for j, atoms in enumerate(coatom_atoms):
        b = 1 | 1 << (5 + j)
        for a in atoms:
            b |= 1 << (1 + a)
        below.append(b)
    below.append((1 << 10) - 1)
    return kl.FlatLattice(ranks, below)


def _cheap_invariants(lat):
    """Level sizes, comparable pairs between adjacent levels and the sorted
    (rank, atoms below) profile."""
    levels = [sum(1 for r in lat.ranks if r == k) for k in range(lat.top_rank + 1)]
    adjacent = [
        sum(lat.below[j] >> i & 1 for j in range(lat.n) for i in range(lat.n)
            if lat.ranks[j] == k + 1 and lat.ranks[i] == k)
        for k in range(lat.top_rank)
    ]
    atoms = [i for i in range(lat.n) if lat.ranks[i] == 1]
    profile = sorted(
        (lat.ranks[i], sum(lat.below[i] >> a & 1 for a in atoms)) for i in range(lat.n)
    )
    return levels, adjacent, profile


def test_iso_checker_rejects_fingerprint_collision():
    # identical level sizes, adjacent zeta counts and atom profiles, but the
    # atom/coatom incidence is an 8-cycle in one and two 4-cycles in the
    # other, so only an exact search can tell them apart
    eight_cycle = _bipartite_rank3_lattice([(0, 1), (1, 2), (2, 3), (3, 0)])
    two_squares = _bipartite_rank3_lattice([(0, 1), (0, 1), (2, 3), (2, 3)])
    assert _cheap_invariants(eight_cycle) == _cheap_invariants(two_squares)
    assert lattice_isomorphic(eight_cycle, two_squares) is False
    relabeled = _bipartite_rank3_lattice([(1, 2), (2, 3), (3, 0), (0, 1)])
    assert lattice_isomorphic(eight_cycle, relabeled) is True


def test_recurrence_inexact_division_signal(monkeypatch):
    broken = dict(kl._FAN_REC)
    broken["lead"] = ((5, 1),)  # wrong integer leading factor
    monkeypatch.setattr(kl, "_FAN_REC", broken)
    monkeypatch.setattr(kl, "_rec_cache", {"fan": [], "wheel": [], "whirl": []})
    with pytest.raises(ArithmeticError):
        kl.kl_recurrence("fan", 6)
