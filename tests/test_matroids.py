import random
import time
from itertools import combinations

import pytest
from hypothesis import given

from conftest import (
    RANDOM_GRAPHS,
    below_lists,
    characteristic_by_masks,
    characteristic_by_subsets,
    components,
    compositions,
    contract,
    contraction,
    flat_members,
    flats_by_scan,
    graphs_up_to_16_edges,
    induced_union,
    is_flat,
    lattice_by_elements,
    lattice_by_pairs,
    lattice_isomorphic,
    localization,
    random_simple_graph,
    rank_table_by_recursion,
    rank_table_by_union_find,
    simplification,
)
from matroidkl import cli, kl, matroids
from matroidkl.graphs import SimpleGraph, make_family
from matroidkl.matroids import (
    MAX_FLATS,
    Flat,
    RankOracleMatroid,
    characteristic_polynomial,
    graphic_matroid,
    lattice_of,
    outer_cycle_mask,
    whirl_matroid,
)
from matroidkl.poly import T, Poly

T2 = Poly([-2, 1])


def axioms_hold_by_loops(table, m):
    """Unit increment and local submodularity, one (X, e, f) at a time."""
    t = table
    for x in range(1 << m):
        for e in range(m):
            if x >> e & 1:
                continue
            xe = x | 1 << e
            if not t[x] <= t[xe] <= t[x] + 1:  # monotone unit increments
                return False
            for f in range(e + 1, m):
                if x >> f & 1:
                    continue
                xf = x | 1 << f
                if t[xe] + t[xf] < t[xe | xf] + t[x]:  # local submodularity
                    return False
    return True


def axioms_hold(table, m):
    """The same two axioms for every X, e and f at once, with the table read
    as one integer T whose byte X is t(X) (every rank is below 0x80).

    For each e, M_e has byte X = 0xff exactly when X lacks e, and G_e the
    0x80 bit of those bytes.  In D = ((T >> 8*2^e) & M_e | G_e) - (T & M_e)
    byte X is 0x80 + t(X+e) - t(X): the 0x80 stops any borrow, so the
    increments are all 0 or 1 exactly when D ^ G_e has no bit but the lowest
    of each byte.  Then byte X of d = D ^ G_e is the increment of e at X,
    and local submodularity says it never grows: no f has d(X+f) = 1 where
    d(X) = 0."""
    size = 1 << m
    if max(table) >= 0x80:
        return False
    tab = int.from_bytes(table, "little")
    high = int.from_bytes(b"\x80" * size, "little")
    not_low = int.from_bytes(b"\xfe" * size, "little")
    lacks = [int.from_bytes((b"\xff" * (1 << e) + bytes(1 << e)) * (size >> (e + 1)), "little")
             for e in range(m)]
    for e, m_e in enumerate(lacks):
        g_e = m_e & high
        d = ((((tab >> (8 << e)) & m_e) | g_e) - (tab & m_e)) ^ g_e
        if d & not_low:
            return False
        for f, m_f in enumerate(lacks):
            if f != e and (d >> (8 << f)) & m_f & ~d:
                return False
    return True


def test_graphic_examples():
    tree = graphic_matroid(make_family("path", 5))
    assert tree.full_rank == 4
    assert len(tree.flats()) == 2**4  # boolean: every subset closed

    c5 = graphic_matroid(make_family("cycle", 5))
    assert c5.full_rank == 4
    for sub in combinations(range(5), 4):
        mask = sum(1 << e for e in sub)
        assert c5.table[mask] == 4  # uniform: every 4-subset independent

    for n in range(1, 7):
        assert graphic_matroid(make_family("fan", n)).full_rank == n


def test_rank_axioms_exhaustive():
    # the loop check on small tables; test_rank_axioms_exact checks every
    # table up to the rank table's 16 elements with the bitwise check
    for m in (
        graphic_matroid(make_family("fan", 5)),
        graphic_matroid(make_family("wheel", 6)),
        whirl_matroid(5),
        graphic_matroid(SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
    ):
        assert axioms_hold_by_loops(m.table, m.m)


def test_bitwise_axiom_check_matches_loops():
    # valid tables, and the same tables with one rank moved by one, two or
    # three: the bitwise check must reject exactly what the loops reject
    rng = random.Random(31)
    matroids_ = [graphic_matroid(make_family(name, n))
                 for name, n in (("fan", 4), ("wheel", 4), ("cycle", 5))] + [whirl_matroid(4)]
    rejected = 0
    for matroid in matroids_:
        m = matroid.m
        assert axioms_hold(matroid.table, m) and axioms_hold_by_loops(matroid.table, m)
        for _ in range(40):
            bad = bytearray(matroid.table)
            x = rng.randrange(1, 1 << m)
            bad[x] = max(0, bad[x] + rng.choice((-3, -2, -1, 1, 2, 3)))
            want = axioms_hold_by_loops(bad, m)
            assert axioms_hold(bad, m) == want, (m, x, bad[x])
            rejected += not want
    assert rejected > 100


def test_rank_axioms_exact():
    # every table the constructors build over the brute routes' range, and
    # random graphs with at most 16 edges
    for family, (lo, hi) in cli.ROUTES["kl", "brute"][1].items():
        for n in range(lo, hi + 1):
            m = kl.family_matroid(family, n)
            assert axioms_hold(m.table, m.m), (family, n)
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 9)
        pairs = list(combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(1, min(16, len(pairs)))))
        m = graphic_matroid(SimpleGraph(n, edges))
        assert axioms_hold(m.table, m.m), edges


def test_loop_rejection():
    table = bytearray(4)
    table[0b10] = 1
    table[0b11] = 1
    with pytest.raises(ValueError):
        RankOracleMatroid(2, table)  # element 0 is a loop


def test_whirl_rank_patch():
    w3 = whirl_matroid(3)
    outer = outer_cycle_mask(3)
    assert w3.table[outer] == 3
    one_less = outer & ~(outer & -outer)
    assert w3.table[one_less] == 2
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
                assert whirl.table[x] == wheel.table[x] + 1
            else:
                assert whirl.table[x] == wheel.table[x]


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
            assert whirl.table[mask] == n - 1


def test_flat_count_cross_module():
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
        localization(m, 0b11 if not is_flat(m, 0b11) else 0b101)

    w3 = whirl_matroid(3)
    outer = outer_cycle_mask(3)
    near = outer & ~(outer & -outer)
    loc = localization(w3, near)
    assert loc.full_rank == 2 and len(loc.flats()) == 4  # boolean on 2 elements


def test_contraction_matches_quotient_graph():
    for family, n in (("fan", 4), ("wheel", 4)):
        g = make_family(family, n)
        m = graphic_matroid(g)
        edge_index = {e: i for i, e in enumerate(g.edges)}
        for c in compositions(g):
            kept = induced_union(g, c)
            fmask = sum(1 << edge_index[e] for e in kept.edges)
            assert is_flat(m, fmask)
            quotient = graphic_matroid(contract(g, c))
            contr = contraction(m, fmask)
            assert contr.full_rank == quotient.full_rank
            assert characteristic_polynomial(contr) == characteristic_polynomial(
                simplification(quotient)
            )
            assert lattice_isomorphic(lattice_by_pairs(contr), lattice_by_pairs(quotient))


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
    assert not is_flat(m, non_flat)
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


@pytest.fixture(scope="module")
def brute_range_matroids():
    """The rank-0 matroid and every family matroid of the brute route: fan and
    square 1..8, wheel and whirl 3..8."""
    cases = [RankOracleMatroid(0, bytearray(1))]
    for family, (lo, hi) in cli.ROUTES["kl", "brute"][1].items():
        cases += [kl.family_matroid(family, n) for n in range(lo, hi + 1)]
    return cases


def lower_chi(lat, mus, j):
    """chi of the lower interval [bottom, F] of flat j from the bitset order
    and the lattice's Moebius function mus: sum over G below F of
    mu(bottom, G) * t^(rk F - rk G)."""
    below, rank = lat.below(j), lat.flats[j].rank
    coeffs = [0] * (rank + 1)
    for g, mu in enumerate(mus):
        if below >> g & 1:
            coeffs[rank - lat.flats[g].rank] += mu
    return Poly(coeffs)


def chi_routes_agree(m):
    """Whitney's sweep, the Moebius function of the bitset order, the walk up
    the pairwise order and the Moebius function on the flat masks give one
    characteristic polynomial."""
    chi, lat = characteristic_polynomial(m), lattice_of(m)
    return (chi == lower_chi(lat, lat.mobius(), len(lat.flats) - 1)
            == list(lattice_by_pairs(m).chi_from_bottom())[-1] == characteristic_by_masks(m))


def order_matches_pairwise_oracle(m):
    """containing(j) is flat j and the flats above it in the pairwise order,
    below(j) is flat j and the flats below it."""
    lat, want = lattice_of(m), lattice_by_pairs(m)
    if [f.rank for f in lat.flats] != list(want.ranks):
        return False
    for j, (ups, downs) in enumerate(zip(want.above, below_lists(want))):
        if (lat.containing(j) != sum(1 << i for i in (j, *ups))
                or lat.below(j) != sum(1 << i for i in (*downs, j))):
            return False
    return True


def matches_element_loops(m):
    """The subset tables, the rank-local mu walk and Whitney's byte counts
    against the element loops, the all-values mu walk and the per-subset
    Whitney loop."""
    lat, want = lattice_of(m), lattice_by_elements(m)
    return (lat.flats == want.flats
            and all(lat.containing(j) == want.containing(j) and lat.below(j) == want.below(j)
                    for j in range(len(lat.flats)))
            and lat.mobius() == want.mobius()
            and characteristic_polynomial(m) == characteristic_by_subsets(m))


def test_subset_tables_match_element_loops_at_chunk_boundaries():
    # chunks of 5 elements: no element, a 1-element and a 4-element chunk,
    # then 1, 2 and 3 full chunks each alone and with a 1-element chunk after
    # them (m = 6, 11 and 16: wheel 8 and whirl 8)
    graphs = [make_family("path", 2), make_family("cycle", 4), make_family("fan", 3),
              make_family("wheel", 3), make_family("wheel", 5),
              SimpleGraph(5, list(combinations(range(5), 2))), make_family("fan", 6),
              make_family("fan", 8), make_family("square_of_path", 8), make_family("wheel", 8)]
    cases = [RankOracleMatroid(0, bytes(1)), whirl_matroid(8)]
    cases += [graphic_matroid(g) for g in graphs]
    assert sorted({m.m for m in cases}) == [0, 1, 4, 5, 6, 10, 11, 15, 16]
    for m in cases:
        assert matches_element_loops(m), m


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_subset_tables_match_element_loops_on_random_graphs(g):
    assert matches_element_loops(graphic_matroid(g))


def test_characteristic_matches_mask_oracle(brute_range_matroids):
    for m in brute_range_matroids:
        assert chi_routes_agree(m), m


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_characteristic_matches_mask_oracle_on_random_graphs(g):
    assert chi_routes_agree(graphic_matroid(g))


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_lattice_order_matches_pairwise_oracle_on_random_graphs(g):
    assert order_matches_pairwise_oracle(graphic_matroid(g))


def test_rank_table_matches_union_find():
    graphs = [SimpleGraph(0), SimpleGraph(3, [])]
    for family, lo in (("fan", 1), ("square_of_path", 1), ("wheel", 3)):
        graphs += [make_family(family, n) for n in range(lo, 9)]
    rng = random.Random(808)
    graphs += [random_simple_graph(rng, max_n=6) for _ in range(30)]
    for g in graphs:
        want = rank_table_by_union_find(g.n, list(g.edges))
        assert graphic_matroid(g).table == want == rank_table_by_recursion(g.n, list(g.edges))
    for n in range(3, 9):
        wheel = make_family("wheel", n)
        want = rank_table_by_union_find(wheel.n, list(wheel.edges))
        want[outer_cycle_mask(n)] = n
        assert whirl_matroid(n).table == want


@RANDOM_GRAPHS
@given(graphs_up_to_16_edges())
def test_lane_sweeps_match_subset_oracles_on_random_graphs(g):
    m, edges = graphic_matroid(g), list(g.edges)
    assert m.table == rank_table_by_recursion(g.n, edges) == rank_table_by_union_find(g.n, edges)
    assert m.flats() == flats_by_scan(m)


def test_flats_match_subset_scan(brute_range_matroids):
    for m in brute_range_matroids:
        assert m.flats() == flats_by_scan(m), m


def unit_steps(table, m):
    """Adding any one element raises the rank by 0 or 1."""
    return all(0 <= table[x | 1 << e] - table[x] <= 1
               for x in range(1 << m) for e in range(m) if not x >> e & 1)


def test_rank_table_values_above_m_are_refused():
    # a rank above the ground set's size, in range(256) or not, fails at
    # construction and names the subset
    for table in ([0, 1, 1, 300], bytearray([0, 1, 1, 3]), [0, 1, 1, -1]):
        with pytest.raises(ValueError, match="subset 0b11"):
            RankOracleMatroid(2, table)
    with pytest.raises(ValueError, match="subset 0b101 has rank 4"):
        RankOracleMatroid(3, bytearray([0, 1, 1, 2, 1, 4, 2, 3]))


def test_rank_table_is_copied_at_construction():
    # changing the caller's table afterwards changes neither the stored
    # table nor any answer: full_rank and kl_z_chi stay those of rank 2
    table = bytearray([0, 1, 1, 2])
    m = RankOracleMatroid(2, table)
    table[3] = 1
    assert m.table == bytes([0, 1, 1, 2]) and m.full_rank == 2
    p, z, chi = kl.kl_z_chi(m)
    assert (p, z, chi) == (Poly([1]), Poly([1, 2, 1]), Poly([1, -2, 1]))
    assert characteristic_polynomial(m) == chi


def test_flats_reject_tables_without_unit_steps():
    with pytest.raises(ValueError, match="element 0"):
        # a step of 2, from {1, 2} to the ground set, with every rank in 0..m
        RankOracleMatroid(3, bytearray([0, 1, 1, 2, 1, 2, 1, 3])).flats()
    with pytest.raises(ValueError, match="element 0"):
        RankOracleMatroid(2, bytearray([0, 1, 1, 0])).flats()  # a step down
    # one rank moved by one or two: the scan goes on exactly when every step
    # is still 0 or 1, and then finds what the subset scan finds
    rng = random.Random(43)
    rejected = 0
    for matroid in (graphic_matroid(make_family("fan", 4)),
                    graphic_matroid(make_family("wheel", 4)), whirl_matroid(4)):
        for _ in range(40):
            bad = bytearray(matroid.table)
            x = rng.choice([x for x in range(1 << matroid.m) if x.bit_count() >= 2])
            bad[x] = max(0, bad[x] + rng.choice((-2, -1, 1, 2)))
            m = RankOracleMatroid(matroid.m, bad)
            if unit_steps(bad, m.m):
                assert m.flats() == flats_by_scan(m)
            else:
                rejected += 1
                with pytest.raises(ValueError, match="element"):
                    m.flats()
    assert rejected > 60


def test_lower_interval_chi_matches_mask_oracle():
    for family in ("fan", "wheel", "whirl"):
        m = kl.family_matroid(family, 5)
        lat = lattice_of(m)
        mus = lat.mobius()
        for j, f in enumerate(m.flats()):
            assert lower_chi(lat, mus, j) == characteristic_by_masks(localization(m, f))


def test_lattice_order_is_flat_inclusion(brute_range_matroids):
    assert kl.lattice_of is matroids.lattice_of
    for m in brute_range_matroids:
        assert order_matches_pairwise_oracle(m), m


def test_characteristic_structure():
    empty = RankOracleMatroid(0, bytearray(1))
    assert characteristic_polynomial(empty) == Poly([1])
    rng = random.Random(77)
    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        m = graphic_matroid(g)
        chi = characteristic_polynomial(m)
        assert chi.leading == 1 and chi.degree == m.full_rank
        if m.full_rank >= 1:
            assert chi(1) == 0


def test_chromatic_vs_characteristic_relation():
    # chi_G(t) = t^(number of components) * chi_{M(G)}(t)
    from matroidkl.graphs import chromatic_polynomial

    rng = random.Random(201)
    for _ in range(15):
        g = random_simple_graph(rng, max_n=6)
        k = len(components(g))
        lhs = chromatic_polynomial(g)
        rhs = T ** k * characteristic_polynomial(graphic_matroid(g))
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


def test_lattice_refuses_too_many_flats_fast():
    # a forest's lattice is boolean: the 15-edge path has 2^15 flats, and
    # building its order would take seconds; the count alone is refused
    m = graphic_matroid(make_family("path", 16))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=str(1 << 15)):
        lattice_of(m)
    assert time.perf_counter() - start < 1.0
    assert len(graphic_matroid(make_family("path", 15)).flats()) == MAX_FLATS


def test_flat_members_roundtrip():
    f = Flat(0b1011, 2)
    assert flat_members(f) == (0, 1, 3)
    with pytest.raises(AttributeError):  # flats are immutable
        f.rank = 3
