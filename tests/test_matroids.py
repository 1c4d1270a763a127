import random
from itertools import combinations

import pytest

from conftest import lattice_isomorphic
from matroidkl import kl
from matroidkl.graphs import SimpleGraph, make_family
from matroidkl.matroids import (
    Flat,
    RankOracleMatroid,
    characteristic_polynomial,
    contraction,
    graphic_matroid,
    localization,
    outer_cycle_mask,
    simplification,
    whirl_matroid,
)
from matroidkl.poly import Poly

T2 = Poly([-2, 1])


def exhaustive_axiom_check(m):
    t = m.table
    full = (1 << m.m) - 1
    for x in range(full + 1):
        for e in range(m.m):
            if x >> e & 1:
                continue
            xe = x | 1 << e
            assert t[x] <= t[xe] <= t[x] + 1  # monotone unit increments
            for f in range(e + 1, m.m):
                if x >> f & 1:
                    continue
                xf = x | 1 << f
                assert t[xe] + t[xf] >= t[xe | xf] + t[x]  # local submodularity


def test_graphic_examples():
    tree = graphic_matroid(make_family("path", 5))
    assert tree.full_rank == 4
    assert len(tree.flats()) == 2**4  # boolean: every subset closed

    c5 = graphic_matroid(make_family("cycle", 5))
    assert c5.full_rank == 4
    for sub in combinations(range(5), 4):
        mask = sum(1 << e for e in sub)
        assert c5.rank(mask) == 4  # uniform: every 4-subset independent

    for n in range(1, 7):
        assert graphic_matroid(make_family("fan", n)).full_rank == n


def test_rank_axioms_exhaustive():
    # exhaustive up to 12 elements; larger oracles rely on the constructor's
    # random spot checks
    for m in (
        graphic_matroid(make_family("fan", 5)),
        graphic_matroid(make_family("wheel", 6)),
        whirl_matroid(5),
        graphic_matroid(SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
    ):
        exhaustive_axiom_check(m)


def test_loop_rejection():
    table = bytearray(4)
    table[0b10] = 1
    table[0b11] = 1
    with pytest.raises(ValueError):
        RankOracleMatroid(2, table)  # element 0 is a loop


def test_whirl_rank_patch():
    w3 = whirl_matroid(3)
    outer = outer_cycle_mask(3)
    assert w3.rank(outer) == 3
    one_less = outer & ~(outer & -outer)
    assert w3.rank(one_less) == 2
    assert w3.full_rank == 3
    with pytest.raises(ValueError):
        whirl_matroid(2)


def test_whirl_agrees_with_wheel_off_outer_cycle():
    for n in range(3, 7):
        whirl = whirl_matroid(n)
        wheel = graphic_matroid(make_family("wheel", n))
        outer = outer_cycle_mask(n)
        for x in range(1 << whirl.m):
            if x == outer:
                assert whirl.rank(x) == wheel.rank(x) + 1
            else:
                assert whirl.rank(x) == wheel.rank(x)


def test_whirl_flats_partition():
    # rank-(n-1) near-cycles join the wheel flats not containing the cycle
    for n in range(3, 7):
        whirl = whirl_matroid(n)
        wheel = graphic_matroid(make_family("wheel", n))
        outer = outer_cycle_mask(n)
        l1 = {outer & ~(1 << e) for e in range(whirl.m) if outer >> e & 1}
        full = (1 << whirl.m) - 1
        l2 = {full} | {f.elements for f in wheel.flats() if f.elements & outer != outer}
        got = {f.elements for f in whirl.flats()}
        assert l1.isdisjoint(l2)
        assert got == l1 | l2
        for mask in l1:
            assert whirl.rank(mask) == n - 1


def test_flat_count_cross_module():
    from matroidkl.graphs import compositions

    g = make_family("fan", 3)
    assert len(graphic_matroid(g).flats()) == sum(1 for _ in compositions(g))


def test_localization():
    m = graphic_matroid(make_family("fan", 3))
    empty = localization(m, 0)
    assert empty.m == 0 and empty.full_rank == 0
    full_mask = (1 << m.m) - 1
    same = localization(m, full_mask)
    assert bytes(same.table) == bytes(m.table)
    with pytest.raises(ValueError):
        localization(m, 0b11 if not m.is_flat(0b11) else 0b101)

    w3 = whirl_matroid(3)
    outer = outer_cycle_mask(3)
    near = outer & ~(outer & -outer)
    loc = localization(w3, near)
    assert loc.full_rank == 2 and len(loc.flats()) == 4  # boolean on 2 elements


def test_contraction_matches_quotient_graph():
    from matroidkl.graphs import compositions, contract as graph_contract, induced_union

    for family, n in (("fan", 4), ("wheel", 4)):
        g = make_family(family, n)
        m = graphic_matroid(g)
        edge_index = {e: i for i, e in enumerate(g.edges)}
        for c in compositions(g):
            kept = induced_union(g, c)
            fmask = sum(1 << edge_index[e] for e in kept.edges)
            assert m.is_flat(fmask)
            quotient = graphic_matroid(graph_contract(g, c))
            contr = contraction(m, fmask)
            assert contr.full_rank == quotient.full_rank
            assert characteristic_polynomial(contr) == characteristic_polynomial(
                simplification(quotient)
            )
            assert lattice_isomorphic(kl.lattice_of(contr), kl.lattice_of(quotient))


def test_contraction_whirl_near_cycle():
    w4 = whirl_matroid(4)
    outer = outer_cycle_mask(4)
    near = outer & ~(outer & -outer)
    contr = contraction(w4, near)
    assert contr.full_rank == 1
    assert contr.m == 1  # simplification collapses everything to one element


def test_contraction_at_empty_flat_simplifies():
    # contracting a triangle edge leaves two parallel elements; the empty-flat
    # contraction of that minor is its simplification
    tri = graphic_matroid(make_family("cycle", 3))
    minor = contraction(tri, 0b001)
    assert minor.m == 1 and minor.full_rank == 1
    simple = simplification(graphic_matroid(make_family("fan", 3)))
    assert bytes(simple.table) == bytes(graphic_matroid(make_family("fan", 3)).table)


def test_contraction_rejects_non_flats():
    m = graphic_matroid(make_family("cycle", 3))
    non_flat = 0b011  # two edges of a triangle span the third
    assert not m.is_flat(non_flat)
    with pytest.raises(ValueError):
        contraction(m, non_flat)


def test_characteristic_closed_forms():
    for n in range(1, 7):
        m = graphic_matroid(make_family("fan", n))
        want = Poly([-1, 1]) * T2 ** (n - 1)
        assert characteristic_polynomial(m) == want
        assert kl.characteristic_closed("fan", n) == want
    for n in range(3, 7):
        m = whirl_matroid(n)
        want = T2**n - Poly([(-1) ** n])
        assert characteristic_polynomial(m) == want
        assert kl.characteristic_closed("whirl", n) == want
    for n in range(3, 7):
        m = graphic_matroid(make_family("wheel", n))
        assert characteristic_polynomial(m) == kl.characteristic_closed("wheel", n)


def test_characteristic_structure():
    empty = RankOracleMatroid(0, bytearray(1))
    assert characteristic_polynomial(empty) == Poly([1])
    rng = random.Random(77)
    from conftest import random_simple_graph

    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        m = graphic_matroid(g)
        chi = characteristic_polynomial(m)
        assert chi.leading == 1 and chi.degree == m.full_rank
        if m.full_rank >= 1:
            assert chi(1) == 0


def test_chromatic_vs_characteristic_relation():
    # chi_G(t) = t^(number of components) * chi_{M(G)}(t)
    from matroidkl.graphs import chromatic_polynomial, components

    rng = random.Random(201)
    from conftest import random_simple_graph

    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        k = len(components(g))
        lhs = chromatic_polynomial(g)
        rhs = Poly.monomial(k) * characteristic_polynomial(graphic_matroid(g))
        assert lhs == rhs


def test_characteristic_multiplicative_on_direct_sums():
    g1 = make_family("cycle", 3)
    g2 = make_family("cycle", 4)
    merged = SimpleGraph(7, list(g1.edges) + [(u + 3, v + 3) for u, v in g2.edges])
    lhs = characteristic_polynomial(graphic_matroid(merged))
    rhs = characteristic_polynomial(graphic_matroid(g1)) * characteristic_polynomial(
        graphic_matroid(g2)
    )
    assert lhs == rhs


def test_flat_members_roundtrip():
    f = Flat(0b1011, 2)
    assert f.members() == (0, 1, 3)
